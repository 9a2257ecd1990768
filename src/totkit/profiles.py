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
from itertools import combinations, combinations_with_replacement

from .errors import SeparationError, SizeBoundError
from .sepsys import SubSystem, Universe, UnorientedSep
from .splinter import IndexedFamily
from .universes import Graph, SubsystemChain

__all__ = [
    "ProfileKind",
    "PROFILE",
    "graph_tangle_kind",
    "circle_tangle_kind",
    "Orientation",
    "is_consistent",
    "has_profile_property",
    "has_tangle_property",
    "is_circle_tangle",
    "enumerate_profiles",
    "enumerate_chain_profiles",
    "maximal_profiles",
    "distinguishers",
    "distinguishes",
    "efficiently_distinguishes",
    "efficient_distinguishers",
    "sequence_efficient_distinguishers",
    "build_distinguisher_family",
    "is_robust_set",
    "orientation_to_json",
    "orientation_from_json",
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

    def orients(self, uid: int) -> bool:
        return uid in self._by_uid

    def __contains__(self, oid: int) -> bool:
        return oid in self.chosen

    def __len__(self):
        return len(self.chosen)

    def __repr__(self):
        return f"Orientation({len(self.chosen)} separations)"


# ----------------------------------------------------------------------
# property checks (direct definitions; enumeration uses incremental forms)


def is_consistent(o: Orientation) -> bool:
    """No two chosen orientations point away from each other."""
    u = o.universe
    ch = sorted(o.chosen)
    for x in ch:
        ix = u.inv(x)
        for y in ch:
            if u.lt(ix, y):
                return False
    return True


def has_profile_property(o: Orientation) -> bool:
    """Property (P): the meet of the inverses of two members is never chosen."""
    u = o.universe
    ch = sorted(o.chosen)
    members = o.system.members
    for x in ch:
        ix = u.inv(x)
        for y in ch:
            c = u.meet(ix, u.inv(y))
            if u.uid(c) in members and c in o.chosen:
                return False
    return True


def _cover_data(g: Graph, u: Universe, oid: int) -> tuple[int, int]:
    amask, _ = u.sides(oid)
    emask = 0
    for b, (i, j) in enumerate(g.edge_indices):
        if amask >> i & 1 and amask >> j & 1:
            emask |= 1 << b
    return amask, emask


def has_tangle_property(o: Orientation, g: Graph) -> bool:
    """Property (T): no three chosen small sides cover all of ``g``."""
    u = o.universe
    if tuple(g.vertices) != tuple(u.labels):
        raise SeparationError("orientation base does not live on this graph")
    vfull = (1 << g.n) - 1
    efull = (1 << g.n_edges) - 1
    data = [_cover_data(g, u, oid) for oid in sorted(o.chosen)]
    for (v1, e1), (v2, e2), (v3, e3) in combinations_with_replacement(data, 3):
        if v1 | v2 | v3 == vfull and e1 | e2 | e3 == efull:
            return False
    return True


def is_circle_tangle(o: Orientation, m: int, n: int) -> bool:
    """Consistent and without a subset of fewer than ``n`` members whose
    big-side intersection has fewer than ``m`` points."""
    if m < 1 or n <= 3:
        raise SeparationError("circle tangles need m >= 1 and n > 3")
    if not is_consistent(o):
        return False
    u = o.universe
    full = u.full_mask
    if len(u.labels) < m:
        return False  # the empty subset already has a too-small intersection
    bsides = [u.sides(oid)[1] for oid in sorted(o.chosen)]
    for size in range(1, n):
        for combo in combinations(bsides, size):
            inter = full
            for b in combo:
                inter &= b
            if inter.bit_count() < m:
                return False
    return True


# ----------------------------------------------------------------------
# enumeration


class _Search:
    """Backtracking enumeration of chain profiles with exact pruning.

    Members are processed in a fixed order (ascending level, then id).  The
    partial orientation is extended one member at a time; a candidate
    orientation is rejected as soon as it completes a violation among decided
    members.  Each constraint only ever involves decided members, so no
    complete orientation is wrongly pruned.
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
        boundaries = []
        pos = 0
        for block in blocks:
            pos += len(block)
            boundaries.append(pos)

        inv = u.inv
        meet = u.meet
        uid_of = u.uid
        lt = u.lt
        member_set = set(members)

        tag = self.kind.tag
        if tag == "graph-tangle":
            g = self.graph
            vfull = (1 << g.n) - 1
            efull = (1 << g.n_edges) - 1
            cover = {}
            for uid in members:
                for oid in u.orientations(uid):
                    cover[oid] = _cover_data(g, u, oid)
        if tag == "circle-tangle":
            m_par, n_par = self.kind.m, self.kind.n
            if len(u.labels) < m_par:
                return [[] for _ in blocks]

        chosen: list[int] = []
        chosen_set: set[int] = set()
        results: list[list[frozenset]] = [[] for _ in blocks]

        # forbidden oriented corners for (P); counts allow undo
        forbidden: dict[int, int] = {}
        # (T): deduplicated chosen cover sides and pair residuals
        sides: dict[tuple[int, int], int] = {}
        residuals: dict[tuple[int, int], int] = {}
        # circle: minimal subset size per reachable big-side intersection
        inters: dict[int, int] = {u.full_mask: 0} if tag == "circle-tangle" else {}

        def try_add(x: int):
            """Return an undo token if x can extend the orientation, else None."""
            ix = inv(x)
            if lt(ix, x):
                return None
            for y in chosen:
                if lt(ix, y) or lt(inv(y), x):
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
                vx, ex = cover[x]
                for (vr, er), cnt in residuals.items():
                    if vr & ~vx == 0 and er & ~ex == 0:
                        return None
                new = []
                for (vy, ey) in list(sides) + [(vx, ex)]:
                    vr = vfull & ~(vx | vy)
                    er = efull & ~(ex | ey)
                    if vr & ~vx == 0 and er & ~ex == 0:
                        return None
                    new.append((vr, er))
                for r in new:
                    residuals[r] = residuals.get(r, 0) + 1
                sides[(vx, ex)] = sides.get((vx, ex), 0) + 1
                trail.append(("T", new, (vx, ex)))
            elif tag == "circle-tangle":
                bx = u.sides(x)[1]
                for mask, size in inters.items():
                    if size + 1 < n_par and (mask & bx).bit_count() < m_par:
                        return None
                # only intersections of subsets of size <= n-2 can still grow
                # into a forbidden subset by adding one later element
                updates = []
                for mask, size in list(inters.items()):
                    ns = size + 1
                    if ns > n_par - 2:
                        continue
                    nm = mask & bx
                    if nm not in inters or inters[nm] > ns:
                        updates.append((nm, inters.get(nm)))
                        inters[nm] = ns
                trail.append(("F", updates))
            chosen.append(x)
            chosen_set.add(x)
            return trail

        def undo(trail):
            x = chosen.pop()
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
                    for r in item[1]:
                        cnt = residuals[r] - 1
                        if cnt:
                            residuals[r] = cnt
                        else:
                            del residuals[r]
                    key = item[2]
                    cnt = sides[key] - 1
                    if cnt:
                        sides[key] = cnt
                    else:
                        del sides[key]
                elif item[0] == "F":
                    for mask, prev in reversed(item[1]):
                        if prev is None:
                            del inters[mask]
                        else:
                            inters[mask] = prev

        # iterative DFS: stack of (position, pending orientation choices, token)
        total = len(members)

        def record_boundaries(pos):
            for li, b in enumerate(boundaries):
                if b == pos:
                    results[li].append(frozenset(chosen))

        stack = [(0, None, None)]
        while stack:
            pos, pending, token = stack.pop()
            if pending is None:
                record_boundaries(pos)
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


def distinguishes(s: UnorientedSep, p: Orientation, q: Orientation) -> bool:
    if s.universe is not p.universe or p.universe is not q.universe:
        raise SeparationError("mixed universes")
    if not (p.orients(s.uid) and q.orients(s.uid)):
        raise SeparationError(f"separation {s.uid} is not oriented by both orientations")
    return p.choice(s.uid) != q.choice(s.uid)


def efficient_distinguishers(p: Orientation, q: Orientation) -> list[int]:
    """Distinguishers of minimal order (requires an order function)."""
    ds = distinguishers(p, q)
    if not ds:
        return []
    u = p.universe
    best = min(u.order(d) for d in ds)
    return [d for d in ds if u.order(d) == best]


def sequence_efficient_distinguishers(
    chain: SubsystemChain, p: Orientation, q: Orientation
) -> list[int]:
    """Distinguishers lying in every chain level that contains any distinguisher."""
    ds = distinguishers(p, q)
    if not ds:
        return []
    levels = [chain.level_of(d) for d in ds]
    if any(l is None for l in levels):
        raise SeparationError("distinguisher outside the chain")
    best = min(levels)
    return [d for d, l in zip(ds, levels) if l == best]


def efficiently_distinguishes(
    s: UnorientedSep,
    p: Orientation,
    q: Orientation,
    context: SubsystemChain | None = None,
) -> bool:
    """Whether ``s`` distinguishes ``p`` and ``q`` at minimal order (or chain level)."""
    if not distinguishes(s, p, q):
        return False
    if context is None:
        return s.uid in efficient_distinguishers(p, q)
    return s.uid in sequence_efficient_distinguishers(context, p, q)


def build_distinguisher_family(
    profiles: list[Orientation],
    mode: str = "efficient",
    order_mode: str = "by-order",
    chain: SubsystemChain | None = None,
    pairs=None,
):
    """Family of distinguisher sets, one per distinguishable profile pair.

    ``mode`` selects the sets: all distinguishers, the minimal-order ones, or
    the minimal-chain-level ones (which needs ``chain``).  With ``order_mode``
    "by-order" the family carries the shared order (or level) of each set and
    the induced strict partial order on pairs.  Indistinguishable pairs are
    skipped and reported on ``family.excluded``; requesting one explicitly
    via ``pairs`` is an error.
    """
    if not profiles:
        raise SeparationError("no profiles given")
    u = profiles[0].universe
    if mode not in ("all", "efficient", "efficient-sequence"):
        raise SeparationError(f"unknown family mode {mode!r}")
    if order_mode not in ("none", "by-order"):
        raise SeparationError(f"unknown order mode {order_mode!r}")
    if mode == "all" and order_mode == "by-order":
        raise SeparationError("all-distinguishers sets do not share one order")
    if mode == "efficient-sequence" and chain is None:
        raise SeparationError("sequence efficiency needs a chain")
    explicit = pairs is not None
    if pairs is None:
        n = len(profiles)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys = []
    sets = {}
    levels = {}
    excluded = []
    for i, j in pairs:
        p, q = profiles[i], profiles[j]
        if mode == "all":
            ds = distinguishers(p, q)
        elif mode == "efficient":
            ds = efficient_distinguishers(p, q)
        else:
            ds = sequence_efficient_distinguishers(chain, p, q)
        if not ds:
            if explicit:
                raise SeparationError(f"profiles {i} and {j} are indistinguishable")
            excluded.append(((i, j), "indistinguishable"))
            continue
        key = (i, j)
        keys.append(key)
        sets[key] = frozenset(ds)
        if order_mode == "by-order":
            if mode == "efficient-sequence":
                levels[key] = min(chain.level_of(d) for d in ds)
            else:
                vals = {u.order(d) for d in ds}
                if len(vals) != 1:
                    raise SeparationError("efficient distinguishers must share one order")
                levels[key] = vals.pop()
    return IndexedFamily(
        u,
        {k: sets[k] for k in keys},
        levels=levels if order_mode == "by-order" else None,
        excluded=tuple(excluded),
    )


# ----------------------------------------------------------------------
# robustness (structural form over a chain)


def is_robust_set(
    profiles: list[Orientation], chain: SubsystemChain, witness: list | None = None
) -> bool:
    """Structural robustness of a set of profiles over a chain.

    For all profiles ``P, Q, Q'``: whenever both ``Q`` and ``Q'`` contain an
    orientation ``r->`` whose inverse lies in ``P``, and ``s`` distinguishes
    ``Q`` and ``Q'`` efficiently, then for every chain level containing ``s``
    some orientation ``s->`` has ``(r<- v s->)`` in ``P`` or ``(r-> v s->)``
    in that level.
    """
    u = chain.universe
    for qi, q in enumerate(profiles):
        for q2 in profiles[qi + 1 :]:
            eff = sequence_efficient_distinguishers(chain, q, q2)
            if not eff:
                continue
            shared = [
                q.choice(r)
                for r in (q.system.members & q2.system.members)
                if q.choice(r) == q2.choice(r)
            ]
            for p in profiles:
                for r_o in shared:
                    r_i = u.inv(r_o)
                    r_uid = u.uid(r_o)
                    if not p.orients(r_uid) or p.choice(r_uid) != r_i:
                        continue
                    for s in eff:
                        s_min = chain.level_of(s)
                        for j in range(s_min, len(chain.systems)):
                            sj = chain.systems[j].members
                            ok = False
                            for s_o in u.orientations(s):
                                c1 = u.join(r_i, s_o)
                                if u.uid(c1) in p.system.members and c1 in p.chosen:
                                    ok = True
                                    break
                                if u.uid(u.join(r_o, s_o)) in sj:
                                    ok = True
                                    break
                            if not ok:
                                if witness is not None:
                                    witness.append((p, q, q2, r_o, s, j))
                                return False
    return True


# ----------------------------------------------------------------------
# JSON round trip for replaying counterexamples


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


def orientation_from_json(universe: Universe, doc: dict) -> Orientation:
    if list(universe.labels) != list(doc["base"]["ground"]):
        raise SeparationError("orientation was exported from a different ground set")
    system = SubSystem(universe, frozenset(doc["base"]["members"]))
    chosen = set()
    for uid, flip in doc["choice"]:
        chosen.add(universe.inv(uid) if flip else uid)
    return Orientation(system, frozenset(chosen))
