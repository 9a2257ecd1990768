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

from .errors import SeparationError
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
    "build_distinguisher_family",
    "orientation_to_json",
]


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

    @property
    def universe(self) -> Universe:
        return self.system.universe

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
    Rule (P) tests consistency; rules (T) and (F) imply it.
    For profiles (rule (P)), the corner ``~x & ~y = (b & d, a | c)`` of a
    candidate and a chosen ``y`` counts only when it orients a member: one
    lookup in a dict from the side pairs of the members' orientations to
    their oids, built once per search.  ``x`` is rejected when ``b <= a``
    (or ``x == ~x``, its corner with itself), when it is the corner of two
    chosen separations, or when a chosen ``y`` is inconsistent with it or
    has a corner with it that is chosen or is ``x``: one walk over them.
    For graph tangles (rule (T)), no three chosen small sides may cover
    ``g``, vertices and edges (a side repeated included).  A side ``Z``
    covers a set of vertices and edges exactly when it contains the set's
    hull: its vertices and the ends of its edges.  Of what neither ``X`` nor
    ``Y`` covers, the hull ``H(X, Y)`` is
    ``O | (X & Y & nbhd[O]) | (rim(X) - Y) | (rim(Y) - X)``, where
    ``O = V - (X | Y)``, ``nbhd[S]`` is the neighbourhood mask of ``S``
    (``Graph.nbhd``, built once per graph) and ``rim(A) = A & nbhd[V - A]``
    (built once per search), both tables over all ``2^n`` vertex masks.
    ``H`` shrinks when ``X`` or ``Y`` grows.  Some chosen small sides are
    tallied: ``sup[h]`` counts the tallied sides that contain ``h``;
    tallying ``A`` adds 1 on all ``2^|A|`` submasks of ``A``, and undo
    subtracts it on the same submasks.  Every chosen small side lies inside
    a tallied one, so ``sup[h] > 0`` exactly when some chosen small side
    contains ``h``.  A candidate ``x = (a, b)`` is rejected when ``a`` is
    ``V``, or when for some chosen small side ``Y`` it has
    ``sup[H(a, Y)] > 0``; an empty hull is caught there too, as ``sup[0]``
    counts every tallied side.  That is every triple through ``a``: with
    ``Y = a`` the hull is ``(V - a) | rim(a)``, empty only when ``a`` is
    ``V``, and a side ``Z`` containing it leaves the pair ``a, Z`` an empty
    hull.  Three facts make most of these tests O(1):

    * (i) ``x`` is rejected when ``sup[b] > 0``: a chosen ``c`` containing
      ``b`` gives ``G[a] | G[c] = g``.
    * (ii) ``x`` is accepted when ``sup[a] > 0``, with no walk and no tally:
      every triple through ``a`` lies inside the same triple with a chosen
      ``c`` containing ``a`` in ``a``'s place, which does not cover ``g``,
      and every later test that ``a`` could fail, ``c`` fails as well.
    * (iii) The walk over ``Y`` takes only the tallied sides: rejection
      through ``Y`` implies rejection through any chosen ``Y'`` containing
      ``Y``.

    Rule (T) implies consistency: ``b <= a`` means
    ``a = V``, and ``b <= c``, ``d <= a`` leave ``a, c`` covering ``g``.
    Rule (F) implies it on bipartitions: ``b <= a`` is ``b = 0``, rejected by
    ``inters[V] = 0``, and ``b <= c`` is ``d & b = 0``, by ``inters[d] <= 1``
    (kept, as ``n > 3``).
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

    def run(self, blocks: list[list[int]]):
        u = self.u
        members = [uid for block in blocks for uid in block]
        # member count -> the levels whose members are exactly the first that many
        ends: dict[int, list[int]] = {}
        pos = 0
        for li, block in enumerate(blocks):
            pos += len(block)
            ends.setdefault(pos, []).append(li)

        inv = u.inv
        sides = u.sides

        tag = self.kind.tag
        if tag == "profile":
            member_oid = {sides(o): o for uid in members for o in u.orientations(uid)}
            # forbidden oriented corners; counts allow undo
            forbidden: dict[int, int] = {}
            chosen_sides: list[tuple[int, int]] = []
            chosen_set: set[int] = set()
        if tag == "graph-tangle":
            vfull = u.full_mask
            nbhd = self.graph.nbhd
            rim = [s & nbhd[vfull ^ s] for s in range(vfull + 1)]
            sup = [0] * (vfull + 1)
            # the tallied chosen small sides, the only ones the walk takes
            cover: list[int] = []

            def tally(a: int, step: int):
                s = a
                while True:
                    sup[s] += step
                    if not s:
                        return
                    s = (s - 1) & a
        if tag == "circle-tangle":
            if any(a & b for a, b in map(sides, members)):
                raise SeparationError("circle tangles need members whose sides are disjoint")
            m_par, n_par = self.kind.m, self.kind.n
            if len(u.labels) < m_par:
                return [[] for _ in blocks]
            # minimal subset size per reachable big-side intersection
            inters: dict[int, int] = {u.full_mask: 0}

        chosen: list[int] = []
        results: list[list[frozenset]] = [[] for _ in blocks]

        def try_add(x: int):
            """Return the rule's undo payload if x can extend the orientation, else None."""
            a, b = sides(x)
            if tag == "profile":
                if b & ~a == 0 or x in forbidden:
                    return None
                token = []
                for c, d in chosen_sides:
                    if b & ~c == 0 and d & ~a == 0:
                        return None
                    k = member_oid.get((b & d, a | c))
                    if k is not None:
                        if k in chosen_set or k == x:
                            return None
                        token.append(k)
                for k in token:
                    forbidden[k] = forbidden.get(k, 0) + 1
                chosen_sides.append((a, b))
                chosen_set.add(x)
            elif tag == "graph-tangle":
                if a == vfull or sup[b]:
                    return None
                if sup[a]:
                    token = -1  # not a side mask: a lies inside a tallied side
                else:
                    ra = rim[a]
                    for c in cover:
                        o = vfull ^ (a | c)
                        h = o | (a & c & nbhd[o]) | (ra & ~c) | (rim[c] & ~a)
                        if sup[h]:
                            return None
                    tally(a, 1)
                    cover.append(a)
                    token = a
            else:
                for mask, size in inters.items():
                    if size + 1 < n_par and (mask & b).bit_count() < m_par:
                        return None
                # only intersections of subsets of size <= n-2 can still grow
                # into a forbidden subset by adding one later element
                token = []
                for mask, size in list(inters.items()):
                    ns = size + 1
                    if ns > n_par - 2:
                        continue
                    nm = mask & b
                    if nm not in inters or inters[nm] > ns:
                        token.append((nm, inters.get(nm)))
                        inters[nm] = ns
            chosen.append(x)
            return token

        def undo(token):
            x = chosen.pop()
            if tag == "profile":
                chosen_set.discard(x)
                chosen_sides.pop()
                for k in token:
                    cnt = forbidden[k] - 1
                    if cnt:
                        forbidden[k] = cnt
                    else:
                        del forbidden[k]
            elif tag == "graph-tangle":
                if token >= 0:
                    tally(token, -1)
                    cover.pop()
            else:
                for mask, prev in reversed(token):
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
) -> list[Orientation]:
    """All orientations of ``system`` that are consistent and satisfy ``kind``.

    Output order is the deterministic backtracking order.
    """
    return enumerate_chain_profiles(SubsystemChain(system.universe, (system,)), kind, graph)[0]


def enumerate_chain_profiles(
    chain: SubsystemChain,
    kind: ProfileKind,
    graph: Graph | None = None,
) -> list[list[Orientation]]:
    """Profiles of every chain level, found in one backtracking pass."""
    blocks = []
    prev: frozenset = frozenset()
    for system in chain.systems:
        blocks.append(_sorted_members(chain.universe, system.members - prev))
        prev = system.members
    search = _Search(chain.universe, kind, graph)
    results = search.run(blocks)
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


def build_distinguisher_family(profiles: list[Orientation]) -> IndexedFamily:
    """Family of efficient distinguisher sets, one per distinguishable pair
    ``i < j`` of ``profiles``, keyed ``(i, j)``.

    A separation distinguishes two orientations when both orient it, and
    differently; the efficient ones are the distinguishers of minimal order,
    which is the key's level.  Indistinguishable pairs are skipped.
    """
    if not profiles:
        raise SeparationError("no profiles given")
    u = profiles[0].universe
    if any(p.universe is not u for p in profiles):
        raise SeparationError("orientations live in different universes")
    uid, order = u.uid, u.order
    sets = {}
    levels = {}
    for i, j in combinations(range(len(profiles)), 2):
        q = profiles[j]
        # q orients a member of both once, so it chose the inverse of p's choice
        ds = [d for d in map(uid, profiles[i].chosen - q.chosen) if d in q.system.members]
        if ds:
            levels[i, j] = best = min(map(order, ds))
            sets[i, j] = frozenset(d for d in ds if order(d) == best)
    return IndexedFamily(u, sets, levels=levels)


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
            [uid, 0 if uid in o.chosen else 1] for uid in o.system.members
        ),
    }
