"""Definitional predicates, kept as test oracles for the fast paths in ``src/``.

Each function here follows a definition from the paper directly and is
only used by the tests: the tangle properties against ``_Search``'s
incremental rules, the corner tags and sides against
``Universe.corners``/``corner_table``, the all-pairs submodularity of an
order against ``check_submodular_order``, the splinter condition key pair by
key pair against ``splinters``, the key order as pairs against the levels of
``IndexedFamily``, and chain-level efficiency against the
order-level families the pipelines build.
"""

from itertools import combinations, combinations_with_replacement

from totkit.errors import SeparationError
from totkit.pipelines import graph_pipeline
from totkit.profiles import (
    Orientation,
    build_distinguisher_family,
    efficient_distinguishers,
)
from totkit.sepsys import SubSystem

# ----------------------------------------------------------------------
# corners and separation systems


def oid(u, a, b):
    return u.find(u.mask_of(a), u.mask_of(b))


def corner_items(u, x, y):
    """The four tagged corners of two unoriented separations, by joins.

    Tags are ``(dr, ds)`` with 0 for the canonical orientation of the
    argument and 1 for its inverse; the value is the uid underlying the
    join of the tagged orientations.  Duplicates are preserved.
    """
    x = u.uid(x)
    y = u.uid(y)
    out = []
    for dr, i in ((0, x), (1, u.inv(x))):
        for ds, j in ((0, y), (1, u.inv(y))):
            out.append(((dr, ds), u.uid(u.join(i, j))))
    return out


def from_different_sides(u, r, s, c1, c2):
    """Whether corners ``c1`` and ``c2`` of ``r`` and ``s`` lie on different sides of ``r``.

    ``c1`` lies on the side of an orientation of ``r`` if it underlies a meet
    of that orientation with an orientation of ``s``; the two corners lie on
    different sides if such witnessing orientations of ``r`` are inverse to
    each other.  All four are uids of ``u``; ``c1 == c2`` is allowed.
    """
    side0, side1 = (
        {u.uid(u.meet(rho, sigma)) for sigma in u.orientations(s)}
        for rho in u.orientations(r)
    )
    if not {c1, c2} <= side0 | side1:
        raise SeparationError("c1 and c2 must be corner separations of r and s")
    return (c1 in side0 and c2 in side1) or (c1 in side1 and c2 in side0)


def is_regular(u, uids):
    """Whether no element of ``uids`` has a small orientation."""
    for x in uids:
        a, b = u.orientations(x)
        if u.is_small(a) or u.is_small(b):
            return False
    return True


def is_structurally_submodular(system):
    """Whether every oriented pair of members has its join or meet in the system."""
    u = system.universe
    members = system.members
    oriented = sorted({o for m in members for o in u.orientations(m)})
    for xi, x in enumerate(oriented):
        for y in oriented[xi:]:
            if u.uid(u.join(x, y)) not in members and u.uid(u.meet(x, y)) not in members:
                return False
    return True


def is_submodular_order(universe):
    """Whether ``|r| + |s| >= |r v s| + |r ^ s|`` for all oriented pairs."""
    order = universe.order
    join = universe.join
    meet = universe.meet
    ids = list(universe.oriented_ids())
    for xi, x in enumerate(ids):
        ox = order(x)
        for y in ids[xi:]:
            if ox + order(y) < order(join(x, y)) + order(meet(x, y)):
                return False
    return True


# ----------------------------------------------------------------------
# the splinter condition


def prec(fam):
    """The strict key order of ``fam`` as ordered key pairs: ``(a, b)`` when
    ``levels[a] < levels[b]``, none without levels."""
    L = fam.levels
    if not L:
        return frozenset()
    return frozenset((a, b) for a in fam.keys for b in fam.keys if L[a] < L[b])


def reference_splinters(fam):
    """Whether every crossing cross-set pair has a corner in the sets' union.

    Every key pair ``i < j`` and element pair ``a`` in ``A_i - A_j``, ``b``
    in ``A_j - A_i`` in turn; returns ``(ok, witness)`` with the first
    violating tuple ``(key_i, key_j, a_i, a_j)`` in canonical order, or None.
    """
    u = fam.universe
    keys = fam.keys
    for ii in range(len(keys)):
        A = fam.sets[keys[ii]]
        for jj in range(ii + 1, len(keys)):
            B = fam.sets[keys[jj]]
            union = A | B
            for a in sorted(A - B):
                for b in sorted(B - A):
                    if u.nested(a, b):
                        continue
                    c00, c01, c10, c11 = u.corner_table(a, b)
                    if not (c00 in union or c01 in union or c10 in union or c11 in union):
                        return False, (keys[ii], keys[jj], a, b)
    return True, None


# ----------------------------------------------------------------------
# tangle properties (enumeration uses incremental forms)


def is_consistent(o):
    """No two chosen orientations point away from each other."""
    u = o.universe
    ch = sorted(o.chosen)
    for x in ch:
        ix = u.inv(x)
        for y in ch:
            if u.lt(ix, y):
                return False
    return True


def has_profile_property(o):
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


def cover_data(g, u, oid):
    """The vertices of the small side ``A`` of ``oid`` and the edges of ``g``
    with both ends in ``A``, as a vertex mask and an edge mask."""
    amask, _ = u.sides(oid)
    emask = 0
    for b, (i, j) in enumerate(g.edge_indices):
        if amask >> i & 1 and amask >> j & 1:
            emask |= 1 << b
    return amask, emask


def has_tangle_property(o, g):
    """Property (T): no three chosen small sides cover all of ``g``."""
    u = o.universe
    if tuple(g.vertices) != tuple(u.labels):
        raise SeparationError("orientation base does not live on this graph")
    vfull = (1 << g.n) - 1
    efull = (1 << g.n_edges) - 1
    data = [cover_data(g, u, oid) for oid in sorted(o.chosen)]
    for (v1, e1), (v2, e2), (v3, e3) in combinations_with_replacement(data, 3):
        if v1 | v2 | v3 == vfull and e1 | e2 | e3 == efull:
            return False
    return True


def is_circle_tangle(o, m, n):
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


def orientation_from_json(universe, doc):
    """The orientation that ``profiles.orientation_to_json`` exported."""
    if list(universe.labels) != list(doc["base"]["ground"]):
        raise SeparationError("orientation was exported from a different ground set")
    system = SubSystem(universe, frozenset(doc["base"]["members"]))
    chosen = set()
    for uid, flip in doc["choice"]:
        chosen.add(universe.inv(uid) if flip else uid)
    return Orientation(system, frozenset(chosen))


# ----------------------------------------------------------------------
# distinguishing and robustness


def distinguishes(u, s, p, q):
    """Whether ``p`` and ``q`` orient the separation with uid ``s`` differently."""
    if p.universe is not u or q.universe is not u:
        raise SeparationError("mixed universes")
    if not (s in p.system.members and s in q.system.members):
        raise SeparationError(f"separation {s} is not oriented by both orientations")
    return p.choice(s) != q.choice(s)


def efficiently_distinguishes(u, s, p, q, context=None):
    """Whether ``s`` distinguishes ``p`` and ``q`` at minimal order (or chain level)."""
    if not distinguishes(u, s, p, q):
        return False
    return s in efficient_distinguishers(p, q, context)


def is_robust_set(profiles, chain, witness=None):
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
            eff = efficient_distinguishers(q, q2, chain)
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
                    if r_uid not in p.system.members or p.choice(r_uid) != r_i:
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


def sequence_family(g):
    """The graph pipeline re-run with chain-level efficiency semantics.

    Returns the order-function pipeline result plus the family built from
    the same maximal tangles using minimal-chain-level distinguishers.
    """
    base = graph_pipeline(g)
    if len(base.profiles) <= 1:
        return base, None
    return base, build_distinguisher_family(base.profiles, mode="efficient", chain=base.chain)
