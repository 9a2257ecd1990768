"""Orientations of subsystems: consistency, profiles, tangles, distinguishers.

An orientation picks one direction for every member of a subsystem.  Three
kinds of "tangle-like" orientations are supported:

* ``profile``: consistent and never containing the meet of the inverses of
  two of its members (property (P));
* ``graph-tangle``: orientation of a graph's separations where no three
  chosen small sides cover the whole graph, vertices and edges (property (T));
* ``circle-tangle``: consistent orientation of circle separations with no
  small subset whose big sides have a small common intersection (the
  forbidden-family condition with parameters ``m`` and ``n``).

Enumeration walks the members sorted by (order, id) and prunes on violations
that are already visible on the partial orientation; every pruning rule is
exact for complete orientations, so the enumeration is exhaustive.  Walking
an ascending chain of subsystems in one pass yields the profiles of every
level: a profile of a later level restricted to an earlier one is a profile
of that level.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import SeparationError, SizeBoundError
from .sepsys import SubSystem, Universe
from .splinter import IndexedFamily
from .universes import Graph, SubsystemChain

__all__ = [
    "ProfileKind",
    "PROFILE",
    "graph_tangle_kind",
    "circle_tangle_kind",
    "Orientation",
    "enumerate_profiles",
    "enumerate_chain_profiles",
    "maximal_profiles",
    "distinguishers",
    "efficient_distinguishers",
    "build_distinguisher_family",
    "orientation_to_json",
]

DEFAULT_MAX_MEMBERS = 5000


@dataclass(frozen=True)
class ProfileKind:
    """Which tangle-like property an orientation is required to satisfy."""

    tag: str
    m: int | None = None
    n: int | None = None

    def __post_init__(self):
        if self.tag not in ("profile", "graph-tangle", "circle-tangle"):
            raise SeparationError(f"unknown profile kind {self.tag!r}")
        if self.tag == "circle-tangle":
            if self.m is None or self.n is None or self.m < 1 or self.n <= 3:
                raise SeparationError("circle tangles need m >= 1 and n > 3")


PROFILE = ProfileKind("profile")


def graph_tangle_kind() -> ProfileKind:
    return ProfileKind("graph-tangle")


def circle_tangle_kind(m: int, n: int) -> ProfileKind:
    return ProfileKind("circle-tangle", m=m, n=n)


@dataclass(frozen=True)
class Orientation:
    """One chosen orientation for every member of a subsystem."""

    system: SubSystem
    chosen: frozenset

    def __post_init__(self):
        u = self.system.universe
        by_uid = {}
        for oid in self.chosen:
            uid = u.uid(oid)
            if uid not in self.system.members:
                raise SeparationError(f"orientation chooses non-member separation {uid}")
            if uid in by_uid and by_uid[uid] != oid:
                raise SeparationError(f"both orientations of {uid} chosen")
            by_uid[uid] = oid
        if len(by_uid) != len(self.system.members):
            raise SeparationError("orientation must orient every member exactly once")
        object.__setattr__(self, "_by_uid", by_uid)

    @property
    def universe(self) -> Universe:
        return self.system.universe

    def choice(self, uid: int) -> int:
        try:
            return self._by_uid[uid]
        except KeyError as exc:
            raise SeparationError(f"separation {uid} is not oriented here") from exc

    def __len__(self):
        return len(self.chosen)

    def __repr__(self):
        return f"Orientation({len(self.chosen)} separations)"


# ----------------------------------------------------------------------
# enumeration


class _Search:
    """Backtracking enumeration of chain profiles with exact pruning.

    Members are processed in a fixed order (ascending level, then id).  The
    partial orientation is extended one member at a time; a candidate
    orientation is rejected as soon as it completes a violation among decided
    members.  Each constraint only ever involves decided members, so no
    complete orientation is wrongly pruned.

    Every test is a plain operation on integer masks.  A candidate
    ``x = (a, b)`` and a chosen ``y = (c, d)`` are inconsistent when
    ``b <= c and d <= a`` (as sets), which is both ``~x < y`` and ``~y < x``
    (``~x`` is never ``y``: each member is oriented once); ``x`` alone is
    inconsistent when ``~x < x``, that is ``b <= a`` and ``x != ~x``.
    For graph tangles, no three chosen small sides may cover ``g``, vertices
    and edges (a side repeated included).  A side ``Z`` covers a set of
    vertices and edges exactly when it contains the set's hull: its vertices
    and the ends of its edges.  Of what neither ``X`` nor ``Y`` covers, the
    hull is ``O | (X & Y & nbr[O]) | (rim(X) - Y) | (rim(Y) - X)``, where
    ``O = V - (X | Y)``, ``nbr[S]`` is the neighbourhood mask of ``S``
    and ``rim(A) = A & nbr[V - A]``, both tables over all ``2^n`` vertex
    masks, built once per search.  ``sup[h]`` counts the chosen small sides
    that contain ``h``: choosing ``A`` adds 1 on all ``2^|A|`` submasks of
    ``A``, and undo subtracts it on the same submasks.  A candidate with
    small side ``X`` is rejected when ``X`` is ``V``, or when for some chosen
    small side ``Y`` it has ``sup[hull] > 0``; an empty hull is caught there
    too, as ``sup[0]`` counts every chosen side.  That is every triple
    through ``X``: with ``Y = X`` the hull is ``(V - X) | rim(X)``, empty
    only when ``X`` is ``V``, and a side ``Z`` containing it leaves the pair
    ``X, Z`` an empty hull.
    """

    def __init__(self, universe: Universe, kind: ProfileKind, graph: Graph | None):
        self.u = universe
        self.kind = kind
        self.graph = graph
        if kind.tag == "graph-tangle":
            if graph is None:
                raise SeparationError("graph tangles need the underlying graph")
            if tuple(graph.vertices) != tuple(universe.labels):
                raise SeparationError("universe was not built from this graph")

    def run(self, blocks: list[list[int]], max_members: int):
        u = self.u
        members = [uid for block in blocks for uid in block]
        if len(members) > max_members:
            raise SizeBoundError(
                f"subsystem has {len(members)} members, bound is {max_members}"
            )
        # member count -> the levels whose members are exactly the first that many
        ends: dict[int, list[int]] = {}
        pos = 0
        for li, block in enumerate(blocks):
            pos += len(block)
            ends.setdefault(pos, []).append(li)

        inv = u.inv
        meet = u.meet
        uid_of = u.uid
        sides = u.sides
        member_set = set(members)

        tag = self.kind.tag
        if tag == "graph-tangle":
            vfull = u.full_mask
            nbr = [0] * (vfull + 1)
            for s in range(1, vfull + 1):
                low = s & -s
                nbr[s] = nbr[s ^ low] | self.graph.adj[low.bit_length() - 1]
            rim = [s & nbr[vfull ^ s] for s in range(vfull + 1)]
            sup = [0] * (vfull + 1)

            def tally(a: int, step: int):
                s = a
                while True:
                    sup[s] += step
                    if not s:
                        return
                    s = (s - 1) & a
        if tag == "circle-tangle":
            m_par, n_par = self.kind.m, self.kind.n
            if len(u.labels) < m_par:
                return [[] for _ in blocks]

        chosen: list[int] = []
        chosen_sides: list[tuple[int, int]] = []
        chosen_set: set[int] = set()
        results: list[list[frozenset]] = [[] for _ in blocks]

        # forbidden oriented corners for (P); counts allow undo
        forbidden: dict[int, int] = {}
        # circle: minimal subset size per reachable big-side intersection
        inters: dict[int, int] = {u.full_mask: 0} if tag == "circle-tangle" else {}

        def try_add(x: int):
            """Return an undo token if x can extend the orientation, else None."""
            ix = inv(x)
            a, b = sides(x)
            if b & ~a == 0 and ix != x:
                return None
            for c, d in chosen_sides:
                if b & ~c == 0 and d & ~a == 0:
                    return None
            trail = []
            if tag == "profile":
                if x in forbidden:
                    return None
                new = []
                for y in chosen:
                    c = meet(ix, inv(y))
                    if uid_of(c) in member_set:
                        new.append(c)
                c = meet(ix, ix)
                if uid_of(c) in member_set:
                    new.append(c)
                for c in new:
                    if c in chosen_set or c == x:
                        return None
                for c in new:
                    forbidden[c] = forbidden.get(c, 0) + 1
                trail.append(("P", new))
            elif tag == "graph-tangle":
                if a == vfull:
                    return None
                ra = rim[a]
                for c, _ in chosen_sides:
                    o = vfull ^ (a | c)
                    h = o | (a & c & nbr[o]) | (ra & ~c) | (rim[c] & ~a)
                    if sup[h]:
                        return None
                tally(a, 1)
                trail.append(("T", a))
            elif tag == "circle-tangle":
                for mask, size in inters.items():
                    if size + 1 < n_par and (mask & b).bit_count() < m_par:
                        return None
                # only intersections of subsets of size <= n-2 can still grow
                # into a forbidden subset by adding one later element
                updates = []
                for mask, size in list(inters.items()):
                    ns = size + 1
                    if ns > n_par - 2:
                        continue
                    nm = mask & b
                    if nm not in inters or inters[nm] > ns:
                        updates.append((nm, inters.get(nm)))
                        inters[nm] = ns
                trail.append(("F", updates))
            chosen.append(x)
            chosen_sides.append((a, b))
            chosen_set.add(x)
            return trail

        def undo(trail):
            x = chosen.pop()
            chosen_sides.pop()
            chosen_set.discard(x)
            for item in trail:
                if item[0] == "P":
                    for c in item[1]:
                        cnt = forbidden[c] - 1
                        if cnt:
                            forbidden[c] = cnt
                        else:
                            del forbidden[c]
                elif item[0] == "T":
                    tally(item[1], -1)
                elif item[0] == "F":
                    for mask, prev in reversed(item[1]):
                        if prev is None:
                            del inters[mask]
                        else:
                            inters[mask] = prev

        # iterative DFS: stack of (position, pending orientation choices, token)
        total = len(members)

        stack = [(0, None, None)]
        while stack:
            pos, pending, token = stack.pop()
            if pending is None:
                for li in ends.get(pos, ()):
                    results[li].append(frozenset(chosen))
                if pos == total:
                    continue
                uid = members[pos]
                pending = [inv(uid), uid] if inv(uid) != uid else [uid]
                stack.append((pos, pending, None))
                continue
            if token is not None:
                undo(token)
            if not pending:
                continue
            x = pending.pop()
            tok = try_add(x)
            if tok is None:
                stack.append((pos, pending, None))
            else:
                stack.append((pos, pending, tok))
                stack.append((pos + 1, None, None))
        return results


def _sorted_members(u: Universe, members) -> list[int]:
    if u.has_order:
        return sorted(members, key=lambda m: (u.order(m), m))
    return sorted(members)


def enumerate_profiles(
    system: SubSystem,
    kind: ProfileKind,
    graph: Graph | None = None,
    max_members: int = DEFAULT_MAX_MEMBERS,
) -> list[Orientation]:
    """All orientations of ``system`` that are consistent and satisfy ``kind``.

    Output order is the deterministic backtracking order.
    """
    search = _Search(system.universe, kind, graph)
    results = search.run([_sorted_members(system.universe, system.members)], max_members)
    return [Orientation(system, ch) for ch in results[0]]


def enumerate_chain_profiles(
    chain: SubsystemChain,
    kind: ProfileKind,
    graph: Graph | None = None,
    max_members: int = DEFAULT_MAX_MEMBERS,
) -> list[list[Orientation]]:
    """Profiles of every chain level, found in one backtracking pass."""
    blocks = []
    prev: frozenset = frozenset()
    for system in chain.systems:
        blocks.append(_sorted_members(chain.universe, system.members - prev))
        prev = system.members
    search = _Search(chain.universe, kind, graph)
    results = search.run(blocks, max_members)
    return [
        [Orientation(system, ch) for ch in level]
        for system, level in zip(chain.systems, results)
    ]


def maximal_profiles(profiles: list[Orientation]) -> list[Orientation]:
    """Subset-maximal orientations (equal orientations count once)."""
    unique: list[Orientation] = []
    seen = set()
    for p in profiles:
        if p.chosen not in seen:
            seen.add(p.chosen)
            unique.append(p)
    out = []
    for p in unique:
        if not any(q.chosen > p.chosen for q in unique):
            out.append(p)
    return out


# ----------------------------------------------------------------------
# distinguishing


def distinguishers(p: Orientation, q: Orientation) -> list[int]:
    """Separations oriented by both and oriented differently, ascending."""
    if p.universe is not q.universe:
        raise SeparationError("orientations live in different universes")
    common = p.system.members & q.system.members
    return sorted(u for u in common if p.choice(u) != q.choice(u))


def efficient_distinguishers(
    p: Orientation, q: Orientation, chain: SubsystemChain | None = None
) -> list[int]:
    """Distinguishers of minimal order (which needs an order function), or
    with ``chain`` of minimal chain level: those in every chain level that
    contains any distinguisher."""
    ds = distinguishers(p, q)
    if not ds:
        return []
    level = p.universe.order if chain is None else chain.level_of
    levels = [level(d) for d in ds]
    if any(l is None for l in levels):
        raise SeparationError("distinguisher outside the chain")
    best = min(levels)
    return [d for d, l in zip(ds, levels) if l == best]


def build_distinguisher_family(
    profiles: list[Orientation],
    mode: str = "efficient",
    chain: SubsystemChain | None = None,
):
    """Family of distinguisher sets, one per distinguishable profile pair.

    ``mode`` "all" takes every distinguisher of a pair; "efficient" takes
    :func:`efficient_distinguishers` (of ``chain`` if given), and the family
    then carries the order (or chain level) the set shares and the induced
    strict partial order on pairs.  Indistinguishable pairs are skipped.
    """
    if not profiles:
        raise SeparationError("no profiles given")
    u = profiles[0].universe
    if mode not in ("all", "efficient"):
        raise SeparationError(f"unknown family mode {mode!r}")
    level = u.order if chain is None else chain.level_of
    sets = {}
    levels = {}
    for i, j in combinations(range(len(profiles)), 2):
        p, q = profiles[i], profiles[j]
        ds = distinguishers(p, q) if mode == "all" else efficient_distinguishers(p, q, chain)
        if not ds:
            continue
        sets[i, j] = frozenset(ds)
        if mode == "efficient":
            vals = {level(d) for d in ds}
            if len(vals) != 1:
                raise SeparationError("efficient distinguishers must share one order")
            levels[i, j] = vals.pop()
    return IndexedFamily(u, sets, levels=levels if mode == "efficient" else None)


# ----------------------------------------------------------------------
# JSON export


def orientation_to_json(o: Orientation) -> dict:
    u = o.universe
    return {
        "base": {
            "kind": u.kind,
            "ground": list(u.labels),
            "members": sorted(o.system.members),
        },
        "choice": sorted(
            [uid, 0 if o.choice(uid) == uid else 1] for uid in o.system.members
        ),
    }
