"""Orientations of subsystems: consistency, profiles, tangles, distinguishers.

An orientation picks one direction for every member of a subsystem.  A
kind of "tangle-like" orientation is the function that builds its rule,
``kind(universe, members, ends) -> (try_add, undo) | None``, for one
search over ``members`` ranked as a chain's, ``ends`` its level ends.
Three kinds are supported:

* ``PROFILE``: consistent and never containing the meet of the inverses of
  two of its members (property (P));
* ``graph_tangle_kind(g)``: orientation of the separations of ``g`` where
  no three chosen small sides cover the whole graph, vertices and edges
  (property (T));
* ``circle_tangle_kind(m, n)``: consistent orientation of circle
  separations with no small subset whose big sides have a small common
  intersection (the forbidden-family condition with parameters ``m`` and
  ``n``).

One exhaustive backtracking pass over an ascending chain of subsystems
yields the profiles of every level: a profile of a later level restricted
to an earlier one is a profile of that level.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import combinations, repeat
from operator import and_, sub
from typing import Callable

from .errors import SeparationError
from .sepsys import SubSystem, Universe, bits
from .splinter import IndexedFamily
from .universes import Graph, SubsystemChain, chain_of

__all__ = [
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


def PROFILE(u: Universe, members: tuple[int, ...], ends: tuple[int, ...]):
    """The kind of profiles: rule (P), as ``(try_add, undo)`` closures.

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
    (the first level whose ``ends`` entry exceeds the member's position) is
    dead, both of its orientations forbidden.  ``dead[level]`` counts those
    members, so it changes only when an orientation's count leaves 0 or
    returns to 0 while its inverse's is positive; ``(V, V)``, the only
    member that is its own inverse, has both base counts and starts dead.
    Every profile of every level is still found, in the same order, for
    three reasons:

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
    # per index, its member's level: level li adds ends[li] - ends[li - 1] members
    level = [li for li, new in enumerate(map(sub, ends, (0,) + ends)) for _ in range(2 * new)]
    forbidden = [int(b & ~a == 0) for a, b in pairs]
    dead = [0] * len(ends)
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


def graph_tangle_kind(graph: Graph) -> Callable:
    """The kind of the tangles of ``graph``: rule (T), on a universe built
    from ``graph``."""
    return partial(_tangle_rule, graph)


def _tangle_rule(graph: Graph, u: Universe, members: tuple[int, ...], ends: tuple[int, ...]):
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


def circle_tangle_kind(m: int, n: int) -> Callable:
    """The kind of the circle tangles with parameters ``m >= 1`` and
    ``n > 3``: rule (F)."""
    if m < 1 or n <= 3:
        raise SeparationError("circle tangles need m >= 1 and n > 3")
    return partial(_circle_rule, m, n)


def _circle_rule(m: int, n: int, u: Universe, members: tuple[int, ...], ends: tuple[int, ...]):
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


def enumerate_profiles(system: SubSystem, kind: Callable) -> list[Orientation]:
    """All orientations of ``system`` that are consistent and of ``kind``.

    Output order is the deterministic backtracking order.
    """
    return enumerate_chain_profiles(chain_of(system.universe, (system,)), kind)[0]


def enumerate_chain_profiles(chain: SubsystemChain, kind: Callable) -> list[list[Orientation]]:
    """Profiles of every chain level, found in one backtracking pass.

    Members are taken by ascending level, then order and id (the chain's
    ``members``), each with its canonical orientation tried first; a
    co-small orientation, ``b <= a``, is never tried, as every rule refuses
    it (see below).  A partial orientation reaching a level's last member,
    at the level's ``ends`` entry, is one of its profiles; only a level that
    holds a profile has its subsystem built.  The kind builds its rule once
    per search, ``kind(chain.universe, members, ends)``: None when not even
    the empty orientation is of the kind, so no level holds a profile, else
    ``(try_add, undo)``, closures over the rule's own state.
    ``try_add(x)`` returns an undo token when ``x`` may extend the partial
    orientation, else None, and ``undo(x, token)`` takes ``x`` back.  A
    rule rejects ``x`` only for a violation among decided members, or while
    a pending member of ``x``'s level has no orientation left, so no
    orientation is wrongly pruned.

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
    members, ends = chain.members, chain.ends
    # member count -> the levels whose members are exactly the first that many
    level_ends: dict[int, list[int]] = {}
    for li, n in enumerate(ends):
        level_ends.setdefault(n, []).append(li)
    rule = kind(u, members, ends)
    if rule is None:
        return [[] for _ in ends]
    try_add, undo = rule
    inv = u.inv
    total = len(members)
    # x = (a, b) is co-small when b <= a, that is a = V, as the sides cover
    # V; so the co-small oids are those from the first pair (V, .) on
    cosmall = bisect_left(u.oriented_ids(), (u.full_mask, 0), key=u.sides)
    nxt = [0] * (total + 1)  # per depth, how many orientations of its member were tried
    levels: list[list[frozenset]] = [[] for _ in ends]
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
    # a level's subsystem is built only when it holds a profile
    built = [chain.level(li) if level else None for li, level in enumerate(levels)]
    return [[Orientation(system, ch) for ch in level] for system, level in zip(built, levels)]


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

    The members of all the profiles' systems are ranked once, by order and
    then id, and rank ``r`` is bit ``r``.  Profile ``i`` is two ints: ``m_i``,
    the members of its system, and ``c_i``, those it orients canonically
    (its chosen oids that are uids).  The distinguishers of ``i`` and ``j``
    are ``(c_i ^ c_j) & m_i & m_j``, whose lowest bit has the minimal order;
    one AND with the ranks up to the last of that order leaves the efficient
    set.  Each distinct set is built once and shared by the keys that have
    it.  So for P profiles over M members the cost is O(P·M) steps of
    C-level passes (on ints of up to M bits), O(1) int operations per pair,
    one bisect per distinct level and O(|set|) per distinct set.
    """
    if not profiles:
        raise SeparationError("no profiles given")
    u = profiles[0].universe
    if any(p.universe is not u for p in profiles):
        raise SeparationError("orientations live in different universes")
    systems = {id(p.system): p.system.members for p in profiles}
    ranked = sorted(set().union(*systems.values()))
    if u.has_order:  # a stable sort: by order, then id
        ranked.sort(key=u.order)
    bit = {x: 1 << r for r, x in enumerate(ranked)}
    of_system = {k: sum(map(bit.__getitem__, ms)) for k, ms in systems.items()}
    m = [of_system[id(p.system)] for p in profiles]
    c = [sum(map(bit.get, p.chosen, repeat(0))) for p in profiles]  # an inverse is no key of bit
    sets, levels, shared, upto = {}, {}, {}, {}
    orders = None
    for i, j in combinations(range(len(profiles)), 2):
        d = (c[i] ^ c[j]) & m[i] & m[j]
        if d:
            if orders is None:  # a universe without an order raises here, and only here
                orders = list(map(u.order, ranked))
            levels[i, j] = best = orders[(d & -d).bit_length() - 1]
            mask = upto.get(best)
            if mask is None:  # the ranks up to the last of order best
                upto[best] = mask = (1 << bisect_right(orders, best)) - 1
            e = d & mask
            s = shared.get(e)
            if s is None:
                shared[e] = s = frozenset(map(ranked.__getitem__, bits(e)))
            sets[i, j] = s
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
