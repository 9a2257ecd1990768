"""Definitional predicates, kept as test oracles for the fast paths in ``src/``.

Each function here follows a definition from the paper directly and is only
used by the tests: the tangle properties against the incremental rules of
``enumerate_chain_profiles``, the corner tags and sides against
``Universe.corners``, the all-pairs submodularity of an order against
``check_submodular_order``, the splinter condition key pair by key pair
against ``splinters`` and on the restricted families of each
``extract_transversal`` pivot, the key order as pairs against the levels of
``IndexedFamily``, the distinguishers of each profile pair (all, efficient
by order, or efficient by chain level) and the family and verdict built
from them pair by pair against ``build_distinguisher_family`` and
``efficiently_distinguishes_all``, chain-level efficiency against the
order-level families the pipelines build, and canonicity under every graph
automorphism against ``verify``'s check of a generating set, and the orbit
of an edge mask under every vertex permutation against the corpus
generators.  The small graphs and trees, one per isomorphism class, are the
inputs on which the width cut of ``graph_tangles`` is checked against the
uncapped search.
"""

from itertools import combinations, combinations_with_replacement, permutations

from totkit import corpus
from totkit.errors import SeparationError, UniverseClosureError
from totkit.pipelines import graph_pipeline
from totkit.profiles import Orientation
from totkit.sepsys import SubSystem
from totkit.splinter import IndexedFamily
from totkit.universes import Graph, automorphisms, lift_permutation

# ----------------------------------------------------------------------
# corners and separation systems


def oid(u, a, b):
    return u.find(u.mask_of(a), u.mask_of(b))


def corner_items(u, x, y):
    """The four tagged corners of two unoriented separations, by joins.

    Tags are ``(dr, ds)`` with 0 for the canonical orientation of the
    argument and 1 for its inverse; the value is the uid underlying the
    join of the tagged orientations, or None for a join outside the
    universe.  Duplicates are preserved.
    """
    x = u.uid(x)
    y = u.uid(y)
    out = []
    for dr, i in ((0, x), (1, u.inv(x))):
        for ds, j in ((0, y), (1, u.inv(y))):
            try:
                out.append(((dr, ds), u.uid(u.join(i, j))))
            except UniverseClosureError:
                out.append(((dr, ds), None))
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
                    c00, c01, c10, c11 = u.corners(a, b)
                    if not (c00 in union or c01 in union or c10 in union or c11 in union):
                        return False, (keys[ii], keys[jj], a, b)
    return True, None


def restricted_families_splinter(fam, res):
    """The Fish Lemma invariant of a transversal extraction ``res`` of ``fam``.

    Replays the pivots of ``res.trace`` on the distinct sets of ``fam``
    (each under the first key that has it): a pivot leaves with its key's
    set, which must hold it, and every other set keeps the elements nested
    with it.  Whether every family so restricted still splinters, by
    :func:`reference_splinters`, with the sizes the trace records.
    """
    u = fam.universe
    first = {}
    for k in fam.keys:
        first.setdefault(fam.sets[k], k)
    items = {repr(k): A for A, k in first.items()}
    for entry in res.trace:
        if entry["event"] != "pivot":
            continue
        pick = entry["pick"]
        if pick not in items.pop(entry["key"]):
            return False
        items = {k: frozenset(x for x in A if u.nested(x, pick)) for k, A in items.items()}
        if [len(A) for A in items.values()] != entry["restricted_sizes"]:
            return False
        if not all(items.values()) or not reference_splinters(IndexedFamily(u, items))[0]:
            return False
    return True


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
    """Property (P): the meet of the inverses of two members is never chosen.
    A meet that the universe does not hold is not in the system, so it
    forbids nothing."""
    u = o.universe
    ch = sorted(o.chosen)
    for x in ch:
        a, b = u.sides(x)
        for y in ch:
            c, d = u.sides(y)
            if u.find(b & d, a | c) in o.chosen:
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


def choice(p, uid):
    """The orientation of the member ``uid`` that ``p`` chose."""
    if uid not in p.system.members:
        raise SeparationError(f"separation {uid} is not oriented here")
    return uid if uid in p.chosen else p.universe.inv(uid)


def distinguishes(u, s, p, q):
    """Whether ``p`` and ``q`` orient the separation with uid ``s`` differently."""
    if p.universe is not u or q.universe is not u:
        raise SeparationError("mixed universes")
    if not (s in p.system.members and s in q.system.members):
        raise SeparationError(f"separation {s} is not oriented by both orientations")
    return choice(p, s) != choice(q, s)


def distinguishers(p, q):
    """Separations oriented by both and oriented differently, ascending."""
    if p.universe is not q.universe:
        raise SeparationError("orientations live in different universes")
    common = p.system.members & q.system.members
    return sorted(s for s in common if choice(p, s) != choice(q, s))


def efficient_distinguishers(p, q, chain=None):
    """Distinguishers of minimal order, or with ``chain`` of minimal chain
    level: those in every chain level that contains any distinguisher."""
    ds = distinguishers(p, q)
    if not ds:
        return []
    level = p.universe.order if chain is None else chain.level_of
    levels = [level(d) for d in ds]
    if any(l is None for l in levels):
        raise SeparationError("distinguisher outside the chain")
    best = min(levels)
    return [d for d, l in zip(ds, levels) if l == best]


def efficiently_distinguishes(u, s, p, q, context=None):
    """Whether ``s`` distinguishes ``p`` and ``q`` at minimal order (or chain level)."""
    if not distinguishes(u, s, p, q):
        return False
    return s in efficient_distinguishers(p, q, context)


def pairwise_family(profiles, mode="efficient", chain=None):
    """The distinguisher family built pair by pair, one set per
    distinguishable pair ``i < j``: with ``mode`` "all" every distinguisher
    and no levels; with "efficient" :func:`efficient_distinguishers` (of
    ``chain`` if given) and the order (or chain level) they share as level."""
    u = profiles[0].universe
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
            assert len(vals) == 1, "efficient distinguishers must share one level"
            levels[i, j] = vals.pop()
    return IndexedFamily(u, sets, levels=levels if mode == "efficient" else None)


def pairwise_distinguishes_all(nested, profiles, chain=None):
    """Whether ``nested`` holds an efficient distinguisher for every
    distinguishable pair of ``profiles`` (of minimal chain level if ``chain``
    is given, else of minimal order)."""
    for i, p in enumerate(profiles):
        for q in profiles[i + 1 :]:
            eff = efficient_distinguishers(p, q, chain)
            if eff and not any(d in nested for d in eff):
                return False
    return True


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
                choice(q, r)
                for r in (q.system.members & q2.system.members)
                if choice(q, r) == choice(q2, r)
            ]
            for p in profiles:
                for r_o in shared:
                    r_i = u.inv(r_o)
                    r_uid = u.uid(r_o)
                    if r_uid not in p.system.members or choice(p, r_uid) != r_i:
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
    return base, pairwise_family(base.profiles, chain=base.chain)


# ----------------------------------------------------------------------
# canonicity


def first_moving_automorphism(g, universe, nested, canonical):
    """The first automorphism of ``g`` in lexicographic order (the identity
    first) whose lift maps ``nested`` to a set other than ``canonical``, or
    None when every automorphism maps it onto ``canonical``."""
    for perm in automorphisms(g):
        mapping = lift_permutation(universe, perm, nested)
        if frozenset(universe.uid(mapping[x]) for x in nested) != canonical:
            return perm
    return None


# ----------------------------------------------------------------------
# graph corpora


def edge_mask_orbit(n, mask):
    """The edge masks of every relabelling of the graph on vertices
    ``0 .. n-1`` whose edge ``(i, j)`` is bit ``b`` of ``mask`` for the
    ``b``-th pair of ``combinations(range(n), 2)``: the image of ``mask``
    under each of the ``n!`` vertex permutations."""
    pos = list(combinations(range(n), 2))
    index = {p: b for b, p in enumerate(pos)}
    edges = [p for b, p in enumerate(pos) if mask >> b & 1]
    return {
        sum(1 << index[min(perm[i], perm[j]), max(perm[i], perm[j])] for i, j in edges)
        for perm in permutations(range(n))
    }


def _edge_mask(n, edges):
    index = {p: b for b, p in enumerate(combinations(range(n), 2))}
    return sum(1 << index[e] for e in edges)


def all_graphs(max_n):
    """One graph per isomorphism class on 1 to ``max_n`` vertices,
    disconnected ones included: the masks that are the least of their orbit."""
    return [
        corpus._graph_from_mask(n, mask)
        for n in range(1, max_n + 1)
        for mask in range(1 << n * (n - 1) // 2)
        if corpus._canonical_mask(n, mask) == mask
    ]


def trees(n):
    """One tree per isomorphism class on ``n`` vertices: each tree on
    ``k + 1`` vertices is one on ``k`` with a leaf ``k`` added."""
    found = [[]]
    for k in range(1, n):
        grown = {}
        for edges in found:
            for v in range(k):
                more = edges + [(v, k)]
                grown.setdefault(corpus._canonical_mask(k + 1, _edge_mask(k + 1, more)), more)
        found = list(grown.values())
    return [Graph(range(n), edges) for edges in found]
