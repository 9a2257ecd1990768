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

One exhaustive backtracking pass over an ascending chain of subsystems
yields the profiles of every level: a profile of a later level restricted
to an earlier one is a profile of that level.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from operator import and_, sub

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
        members = self.system.members
        # one uid per chosen oid, all of them members: every member once
        if len(self.chosen) == len(members) and set(map(u.uid, self.chosen)) == members:
            return
        by_uid = {}
        for oid in self.chosen:
            uid = u.uid(oid)
            if uid not in members:
                raise SeparationError(f"orientation chooses non-member separation {uid}")
            if uid in by_uid and by_uid[uid] != oid:
                raise SeparationError(f"both orientations of {uid} chosen")
            by_uid[uid] = oid
        if len(by_uid) != len(members):
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


def _profile_rule(u: Universe, members: list[int], member_levels: list[int]):
    """Rule (P) for profiles, as ``(try_add, undo)`` closures.

    The orientations of ``members[i]`` get the indices ``2i`` (canonical)
    and ``2i + 1``, so index ``j`` has the inverse ``j ^ 1``.  The corner
    ``~x & ~y = (b & d, a | c)`` of a candidate ``x = (a, b)`` and a chosen
    ``y = (c, d)`` counts only when it orients a member: one lookup in a
    dict from the side pairs of the member orientations to their indices,
    built once per search.  ``forbidden[j]`` counts the reasons index ``j``
    may not be chosen: a base count of 1 when ``b <= a`` (which covers
    ``x == ~x``, its corner with itself), and 1 for each pair of chosen
    separations whose corner it is.  ``x`` is rejected when it is forbidden,
    or when one walk over the chosen ``y`` finds one inconsistent with it or
    with a corner that is chosen or is ``x``.

    ``x`` is also rejected while a pending member of its own chain level
    (``member_levels`` is parallel to ``members``) is dead, both of its
    orientations forbidden.  ``dead[level]`` counts those members, so it
    changes only when an orientation's count leaves 0 or returns to 0 while
    its inverse's is positive; ``(V, V)``, the only member that is its own
    inverse, has both base counts and starts dead.  Every profile of every
    level is still found, in the same order, for three reasons:

    * forbidden counts only grow along a search path, so a dead member
      stays dead below it;
    * a chosen orientation is never forbidden, so a dead member is still
      undecided, and ``x``'s level cannot be completed below it;
    * a profile of a later level restricts to a profile of this level, so
      no later level is completed below it either.
    """
    sides = u.sides
    oids = [o for uid in members for o in u.orientations(uid)]
    pairs = list(map(sides, oids))
    index = {o: j for j, o in enumerate(oids)}
    member_index = {p: j for j, p in enumerate(pairs)}
    level = [li for li in member_levels for _ in (0, 1)]
    forbidden = [int(b & ~a == 0) for a, b in pairs]
    dead = [0] * (max(member_levels, default=0) + 1)
    for j in range(0, len(oids), 2):
        if forbidden[j] and forbidden[j + 1]:
            dead[level[j]] += 1
    chosen_sides: list[tuple[int, int]] = []
    chosen_set: set[int] = set()

    def try_add(x: int):
        j = index[x]
        if forbidden[j] or dead[level[j]]:
            return None
        a, b = pairs[j]
        token = []
        for c, d in chosen_sides:
            if b & ~c == 0 and d & ~a == 0:
                return None
            k = member_index.get((b & d, a | c))
            if k is not None:
                if k in chosen_set or k == j:
                    return None
                token.append(k)
        for k in token:
            f = forbidden[k]
            forbidden[k] = f + 1
            if not f and forbidden[k ^ 1]:
                dead[level[k]] += 1
        chosen_sides.append((a, b))
        chosen_set.add(j)
        return token

    def undo(x: int, token):
        chosen_set.discard(index[x])
        chosen_sides.pop()
        for k in token:
            f = forbidden[k] - 1
            forbidden[k] = f
            if not f and forbidden[k ^ 1]:
                dead[level[k]] -= 1

    return try_add, undo


def _tangle_rule(u: Universe, graph: Graph | None):
    """Rule (T) for tangles of ``graph``, as ``(try_add, undo)`` closures.

    No three chosen small sides may cover ``g``, vertices and edges (a side
    repeated included).  A side ``Z`` covers a set of vertices and edges
    exactly when it contains the set's hull: its vertices and the ends of
    its edges.  Of what neither ``X`` nor ``Y`` covers, the hull ``H(X, Y)``
    is ``O | (X & Y & nbhd[O]) | (rim(X) - Y) | (rim(Y) - X)``, where
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
    * (iii) The walk over ``Y`` takes only the inclusion-maximal tallied
      sides: ``H(a, Y)`` shrinks as ``Y`` grows and ``sup`` is down-closed,
      so rejection through ``Y`` implies rejection through any chosen
      ``Y'`` containing ``Y``, and every chosen small side lies inside a
      maximal tallied one.  A side is tallied only when ``sup[a]`` is 0, so
      it is then maximal; tallying it drops the tallied sides inside it
      from the walk, and undo restores them.

    Rule (T) implies consistency: ``b <= a`` means ``a = V``, and
    ``b <= c``, ``d <= a`` leave ``a, c`` covering ``g``.
    """
    if graph is None:
        raise SeparationError("graph tangles need the underlying graph")
    if tuple(graph.vertices) != tuple(u.labels):
        raise SeparationError("universe was not built from this graph")
    sides = u.sides
    vfull = u.full_mask
    nbhd = graph.nbhd
    rim = list(map(and_, range(vfull + 1), reversed(nbhd)))  # nbhd[V - s] for s
    sup = [0] * (vfull + 1)
    # the inclusion-maximal tallied sides, the only ones the walk takes
    cover: list[int] = []

    def tally(a: int, step: int):
        s = a
        while True:
            sup[s] += step
            if not s:
                return
            s = (s - 1) & a

    def try_add(x: int):
        nonlocal cover
        a, b = sides(x)
        if a == vfull or sup[b]:
            return None
        if sup[a]:
            return ()  # a lies inside a tallied side: nothing is tallied
        ra = rim[a]
        for c in cover:
            o = vfull ^ (a | c)
            h = o | (a & c & nbhd[o]) | (ra & ~c) | (rim[c] & ~a)
            if sup[h]:
                return None
        tally(a, 1)
        prev = cover
        cover = [c for c in cover if c & ~a]
        cover.append(a)
        return a, prev

    def undo(x: int, token):
        nonlocal cover
        if token:
            a, cover = token
            tally(a, -1)

    return try_add, undo


def _circle_rule(u: Universe, members: list[int], m: int, n: int):
    """Rule (F) for circle tangles, as ``(try_add, undo)`` closures: no set
    of fewer than ``n`` chosen members whose big sides meet in fewer than
    ``m`` points; None when the circle has fewer than ``m`` points, as then
    not even the empty orientation is one.

    The state is a tuple of entries ``(s, |M|, M)``: ``M`` is the big-side
    intersection of ``s <= n - 2`` chosen members, so adding one more
    member with big side ``b`` is rejected when ``|M & b| < m``, and only
    such ``M`` can still grow into a forbidden set.  Only the undominated
    intersections are kept: ``(s, M)`` dominates ``(s', M')`` when
    ``M <= M'`` and ``s <= s'``.  Then ``|M & b| <= |M' & b|``, so every
    rejection through ``M'`` is one through ``M``, and ``(s + 1, M & b)``
    dominates ``(s' + 1, M' & b)``, so the entries grown from dominated
    ones are dominated too.  The undo token is the previous tuple.

    Rule (F) implies consistency on bipartitions only, so members whose
    sides meet are refused: ``b <= a`` is ``b = 0``, rejected through
    ``(0, V)``, which nothing else dominates, and ``b <= c`` is
    ``d & b = 0``, rejected through the entry ``(1, d)`` made when ``y``
    was chosen or one dominating it (kept, as ``n > 3``).
    """
    sides = u.sides
    if any(a & b for a, b in map(sides, members)):
        raise SeparationError("circle tangles need members whose sides are disjoint")
    if len(u.labels) < m:
        return None
    grows = n - 2  # entries of fewer members can take one more
    state = ((0, len(u.labels), u.full_mask),)

    def try_add(x: int):
        nonlocal state
        b = sides(x)[1]
        grown = []
        for s, _, mask in state:
            nm = mask & b
            c = nm.bit_count()
            if c < m:
                return None
            if s < grows and nm != mask:
                grown.append((s + 1, c, nm))
        prev = state
        if grown:
            # by size, then point count: an entry's dominators come before it
            keep: list = []
            for entry in sorted(prev + tuple(grown)):
                mask = entry[2]
                for _, _, k in keep:
                    if not k & ~mask:
                        break
                else:
                    keep.append(entry)
            state = tuple(keep)
        return prev

    def undo(x: int, token):
        nonlocal state
        state = token

    return try_add, undo


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
    """Profiles of every chain level, found in one backtracking pass.

    Members are taken by ascending level, then order and id (the chain's
    ``ranking``), each with its canonical orientation tried first; a
    co-small orientation, ``b <= a``, is never tried, as every rule refuses
    it (see below).  A partial orientation reaching a
    level's last member is one of its profiles.  The kind's rule, built once
    per search, keeps its own state: ``try_add(x)`` returns an undo token
    when ``x`` may extend the partial orientation, else None, and
    ``undo(x, token)`` takes ``x`` back.  A rule rejects ``x`` only for a
    violation among decided members, or while a pending member of ``x``'s
    level has no orientation left, so no orientation is wrongly pruned.

    Every test is a plain operation on integer masks.  A candidate
    ``x = (a, b)`` and a chosen ``y = (c, d)`` are inconsistent when
    ``b <= c and d <= a`` (as sets), which is both ``~x < y`` and
    ``~y < x`` (``~x`` is never ``y``: each member is oriented once); ``x``
    alone is inconsistent when ``~x < x``, that is ``b <= a`` and
    ``x != ~x``.  Rule (P) tests consistency; rules (T) and (F) imply it.
    Each refuses every co-small ``x``, ``(V, V)`` included: rule (P) by its
    base count, rule (T) as ``a = V`` and rule (F) as ``b = 0``.
    """
    u = chain.universe
    members, ends = chain.ranking
    # member count -> the levels whose members are exactly the first that many
    level_ends: dict[int, list[int]] = {}
    for li, n in enumerate(ends):
        level_ends.setdefault(n, []).append(li)
    if kind.tag == "profile":
        member_levels = [li for li, n in enumerate(map(sub, ends, (0,) + ends)) for _ in range(n)]
        rule = _profile_rule(u, members, member_levels)
    elif kind.tag == "graph-tangle":
        rule = _tangle_rule(u, graph)
    else:
        rule = _circle_rule(u, members, kind.m, kind.n)
    if rule is None:
        return [[] for _ in chain.systems]
    try_add, undo = rule
    inv = u.inv
    total = len(members)
    # x = (a, b) is co-small when b <= a, that is a = V, as the sides cover
    # V; so the co-small oids are those from the first pair (V, .) on
    cosmall = bisect_left(u.oriented_ids(), (u.full_mask, 0), key=u.sides)
    nxt = [0] * (total + 1)  # per depth, how many orientations of its member were tried
    levels: list[list[frozenset]] = [[] for _ in chain.systems]
    chosen, tokens = [], []
    depth = 0
    while True:
        i = nxt[depth]
        if not i:
            for li in level_ends.get(depth, ()):
                levels[li].append(frozenset(chosen))
        if depth < total and i < 2:
            nxt[depth] = i + 1
            x = members[depth]
            if i:
                x = inv(x)
            if x >= cosmall:  # (V, V), its own inverse, is co-small both ways
                continue
            token = try_add(x)
            if token is not None:
                chosen.append(x)
                tokens.append(token)
                depth += 1
        else:
            nxt[depth] = 0
            if not depth:
                break
            depth -= 1
            undo(chosen.pop(), tokens.pop())
    return [
        [Orientation(system, ch) for ch in level]
        for system, level in zip(chain.systems, levels)
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
