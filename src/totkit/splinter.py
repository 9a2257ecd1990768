"""Splinter predicates and nested-transversal extraction.

An indexed family assigns a non-empty set of separations of one universe to
each key, optionally with a level value per key that orders the keys.  The
two splinter predicates, :func:`splinters` and
:func:`splinters_hierarchically`, share one pass over the crossing pairs of
support elements, :func:`_first_failure`; each supplies only its per-pair
rule on which family sets hold which corners.  Predicates and extractions
read nestedness and maximality from one order table of bitmasks over the
family's support.  The extractions implement the inductive arguments behind
the two main lemmas directly:

* :func:`extract_transversal` picks one element per set, pairwise nested,
  whenever the family splinters, by a pivot scan: the first element (in
  canonical id order) nested with some element of every set is picked and
  the other sets are restricted to the elements nested with it, which keeps
  the family splintering by the Fish Lemma.  It takes polynomially many
  mask operations; runs are reproducible but not isomorphism-invariant.
* :func:`extract_canonical` returns a nested set meeting every member set
  whenever the family splinters hierarchically; it makes no arbitrary
  choices at all, and commutes with every isomorphism of separation systems
  that preserves the family.  A round costs O(|union|) mask operations.

Every run re-verifies its own output (nested, meets every set) and raises
instead of returning an unverified result.  :func:`extract_transversal`
prechecks :func:`splinters`, so it refuses every family that does not
splinter; :func:`extract_canonical` runs :func:`splinters_hierarchically`
only after it fails, to name the witness, as its lemma is constructive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import and_

from .errors import (
    HierarchicalConditionError,
    InternalContradictionError,
    SeparationError,
    SplinterConditionError,
)
from .sepsys import Universe, bits

__all__ = [
    "IndexedFamily",
    "efficiently_distinguishes_all",
    "TransversalResult",
    "splinters",
    "extract_transversal",
    "extremal_elements",
    "splinters_hierarchically",
    "extract_canonical",
    "map_family",
]


class IndexedFamily:
    """Finite family of non-empty separation sets, indexed by hashable keys.

    ``levels`` optionally maps every key to a value of one total order
    (numbers, in practice).  Key ``a`` strictly precedes key ``b`` when
    ``levels[a] < levels[b]``, so the order is strict and transitive by
    construction; without levels no two keys are comparable.
    """

    def __init__(self, universe: Universe, sets, levels=None):
        self.universe = universe
        if isinstance(sets, dict):
            items = list(sets.items())
        else:
            items = list(enumerate(sets))
        self.keys = tuple(k for k, _ in items)
        if len(set(self.keys)) != len(self.keys):
            raise SeparationError("duplicate family keys")
        self.sets = {}
        for k, s in items:
            members = frozenset(universe.uid(x) for x in s)
            if not members:
                raise SeparationError(f"family set {k!r} is empty")
            self.sets[k] = members
        self.levels = dict(levels) if levels else None
        if self.levels is not None:
            for k in self.keys:
                if k not in self.levels:
                    raise SeparationError(f"family key {k!r} has no level")

    def __len__(self):
        return len(self.keys)

    def union_support(self) -> frozenset:
        return frozenset().union(*self.sets.values())

    @cached_property
    def order_table(self) -> _OrderTable:
        """The :class:`_OrderTable` of the family's support, built on first use."""
        return _OrderTable(self.universe, self.union_support())

    def __repr__(self):
        return f"IndexedFamily({len(self.keys)} sets, universe={self.universe!r})"


def _missed_keys(sets: dict, nested) -> list:
    """The keys, in key order, whose sets miss ``nested``."""
    return [k for k, s in sets.items() if s.isdisjoint(nested)]


def efficiently_distinguishes_all(nested: frozenset, family: IndexedFamily | None) -> bool:
    """Whether ``nested`` meets every set of the efficient-distinguisher
    ``family``, so holds an efficient distinguisher of every distinguishable
    profile pair; vacuously so without a family (fewer than two profiles)."""
    return family is None or not _missed_keys(family.sets, nested)


class _OrderTable:
    """The order on a set of separations, as bitmasks over their positions.

    ``support`` lists the uids ascending, ``pos`` maps each to its position,
    ``up[2 * i + e]`` masks the positions with an orientation strictly above
    orientation ``e`` of ``support[i]`` (0: the uid, 1: its inverse), and
    ``nest[i]``, which is ``up[2 * i] | up[2 * i + 1]`` and ``i``, those
    nested with ``support[i]``.  ``(c, d)`` is above ``(a, b)`` iff each
    ground element of ``a`` is in ``c`` and, unless also in ``b``, not in ``d``.
    """

    def __init__(self, universe: Universe, uids):
        self.support = support = sorted(uids)
        self.pos = {x: i for i, x in enumerate(support)}
        sides = [universe.sides(x) for x in support]
        ground, full = range(len(universe.labels)), (1 << len(support)) - 1
        on_a, on_b = [0] * len(ground), [0] * len(ground)  # positions holding v on side 0, 1
        for i, (a, b) in enumerate(sides):
            for v in ground:
                on_a[v] |= (a >> v & 1) << i
                on_b[v] |= (b >> v & 1) << i
        self.up = up = []
        for i, (a0, b0) in enumerate(sides):
            for a, b in ((a0, b0), (b0, a0)):
                above0 = above1 = full  # orientation 0, 1 of each position
                for v in bits(a):
                    above0 &= on_a[v] if b >> v & 1 else on_a[v] & ~on_b[v]
                    above1 &= on_b[v] if b >> v & 1 else on_b[v] & ~on_a[v]
                # (a, b) is below itself, and strictly below (b, a) iff a < b
                up.append((above0 | above1) ^ (a & ~b != 0 or a == b) << i)
        self.nest = [up[2 * i] | up[2 * i + 1] | 1 << i for i in range(len(support))]

    def uids(self, mask: int) -> list[int]:
        return [self.support[i] for i in bits(mask)]

    def extremal(self, union: int) -> int:
        """The positions of ``union`` with an orientation below none of ``union``'s."""
        up = self.up
        return sum(1 << i for i in bits(union) if not (up[2 * i] & union and up[2 * i + 1] & union))


# ----------------------------------------------------------------------
# the splinter predicates


def _first_failure(fam: IndexedFamily, levels, rule):
    """``(ok, witness)`` of a splinter predicate from its per-pair ``rule``.

    Keys with an equal set (and level, when ``levels`` is given) form one
    group, and a key pair's verdict depends only on its two groups;
    ``holds[x]`` is the bitmask of the groups whose set holds ``x``.  A nested
    pair passes both predicates, since ``a`` and ``b`` fill a diagonal of
    their corner table.  So one pass visits each crossing pair ``a < b`` of
    support elements once, read off the family's order table, computes its
    corners once with :meth:`Universe.corners`, whose slots ``(c00, c01)``
    and ``(c10, c11)`` are the two sides of ``a`` and ``(c00, c10)`` and
    ``(c01, c11)`` those of ``b`` (a slot of None, a corner outside the
    universe, is held by no group), and calls ``rule(gs, ha, hb, a0, a1, b0,
    b1, higher, lower)`` on bitmasks of groups: ``gs`` to settle (they hold
    ``a``), those holding ``a`` and ``b``, those holding a corner on side 0
    or 1 of ``a`` and of ``b``, and per group ``g`` those of strictly higher
    and lower level.  The rule returns ``(g, hs)`` for each ``g`` in ``gs`` whose key
    pairs with the groups ``hs`` fail at ``(a, b)``.  Verdicts are symmetric,
    so this finds every failing group pair in O(support² + crossing pairs ×
    groups) int operations.  Key pairs are scanned only to name the witness:
    the first failing ``(key_i, key_j, a_i, a_j)`` in key order (``i <= j``),
    then in sorted element order.
    """
    corners = fam.universe.corners
    table = fam.order_table
    support, pos, nest = table.support, table.pos, table.nest
    keys, sets = fam.keys, fam.sets
    group_of: dict = {}
    key_group = [
        group_of.setdefault((sets[k], levels[k] if levels else None), len(group_of))
        for k in keys
    ]
    at_level: dict = {}
    holds: dict = {}
    for g, (A, level) in enumerate(group_of):
        at_level[level] = at_level.get(level, 0) | 1 << g
        for x in A:
            holds[x] = holds.get(x, 0) | 1 << g
    below: dict = {}
    acc = 0
    for level in sorted(at_level):
        below[level] = acc
        acc |= at_level[level]
    higher = [acc & ~below[level] & ~at_level[level] for _, level in group_of]
    lower = [below[level] for _, level in group_of]

    def failing(a, b, gs):
        c00, c01, c10, c11 = corners(a, b)
        h00, h01 = holds.get(c00, 0), holds.get(c01, 0)
        h10, h11 = holds.get(c10, 0), holds.get(c11, 0)
        return rule(gs, holds[a], holds[b], h00 | h01, h10 | h11, h00 | h10, h01 | h11,
                    higher, lower)

    fails = [0] * len(group_of)
    full = (1 << len(support)) - 1
    for i, x in enumerate(support):
        gx = holds[x]
        for j in bits(~nest[i] & (full >> i + 1 << i + 1)):
            for g, hs in failing(x, support[j], gx):
                fails[g] |= hs
    if not any(fails):
        return True, None
    for g, hs in enumerate(fails):
        for h in bits(hs):
            fails[h] |= 1 << g
    last = {g: jj for jj, g in enumerate(key_group)}
    for ii, g in enumerate(key_group):
        bad = fails[g]
        if not (bad and any(last[h] >= ii for h in bits(bad))):
            continue
        jj = next(jj for jj in range(ii, len(keys)) if bad >> key_group[jj] & 1)
        ki, kj = keys[ii], keys[jj]
        for a in sorted(sets[ki]):
            for b in sorted(sets[kj]):
                if not nest[pos[a]] >> pos[b] & 1 and any(
                    hs >> key_group[jj] & 1 for _, hs in failing(a, b, 1 << g)
                ):
                    return False, (ki, kj, a, b)
    raise InternalContradictionError("a failing group pair has no failing element pair")


def _splinter_rule(gs, ha, hb, a0, a1, b0, b1, higher, lower):
    # a in A_g - A_h, b in A_h - A_g, and neither set holds a corner
    free = ~(a0 | a1)
    bad = hb & ~ha & free
    return [(g, bad) for g in bits(gs & ~hb & free)] if bad else ()


def splinters(fam: IndexedFamily):
    """Whether every crossing cross-set pair has a corner in the sets' union.

    For keys ``i < j``, ``a`` in ``A_i - A_j`` and ``b`` in ``A_j - A_i``
    crossing, some corner of ``a`` and ``b`` lies in ``A_i | A_j``; levels
    are ignored.  Returns ``(ok, witness)`` as :func:`_first_failure` does.
    """
    return _first_failure(fam, None, _splinter_rule)


# ----------------------------------------------------------------------
# non-canonical extraction


class _Traced:
    def trace_jsonl(self) -> str:
        import json

        return "\n".join(json.dumps(e, sort_keys=True) for e in self.trace)


@dataclass
class TransversalResult(_Traced):
    """One nested pick per family key, plus the decision trace."""

    picks: dict
    trace: list = field(default_factory=list)

    def nested_set(self) -> frozenset:
        return frozenset(self.picks.values())


def extract_transversal(fam: IndexedFamily) -> TransversalResult:
    """Pick one element from each set so that the picks are pairwise nested.

    Follows the constructive splinter lemma with a pivot scan: while more
    than one set remains, walk the union of the remaining sets in canonical
    id order and take the first element nested with some element of every
    remaining set; it becomes the pick of the first key whose set holds it,
    and every other set is restricted to the elements nested with it.  The
    last set left contributes its canonically first element.  By the Fish
    Lemma (a separation nested with two crossing separations is nested with
    all four of their corners) each restricted family still splinters, so a
    pivot exists at every step.

    Sets are bitmasks over the family's order table and keys with identical
    sets share one pick, so the work is O(n² * |union|) mask operations for
    n distinct sets, and the trace has one entry per distinct set.  Requires
    the family to splinter.
    """
    ok, witness = splinters(fam)
    if not ok:
        raise SplinterConditionError(witness)
    first_key: dict = {}
    for k in fam.keys:
        first_key.setdefault(fam.sets[k], k)
    table = fam.order_table
    pos, nest = table.pos, table.nest
    trace: list[dict] = []
    chosen: dict = {}
    items = [(k, sum(1 << pos[x] for x in A)) for A, k in first_key.items()]
    while len(items) > 1:
        union = 0
        for _, A in items:
            union |= A
        pivot = next((p for p in bits(union) if all(nest[p] & A for _, A in items)), None)
        if pivot is None:
            raise InternalContradictionError(
                "no element is nested with some element of every remaining set"
            )
        pivot_key = next(k for k, A in items if A >> pivot & 1)
        chosen[pivot_key] = table.support[pivot]
        items = [(k, A & nest[pivot]) for k, A in items if k != pivot_key]
        trace.append(
            {
                "depth": len(trace),
                "event": "pivot",
                "key": repr(pivot_key),
                "pick": chosen[pivot_key],
                "restricted_sizes": [A.bit_count() for _, A in items],
            }
        )
    if items:
        k, A = items[0]
        chosen[k] = min(table.uids(A))
        trace.append({"depth": len(trace), "event": "single", "key": repr(k), "pick": chosen[k]})
    picks = {k: chosen[first_key[fam.sets[k]]] for k in fam.keys}
    _verify_picks(fam, picks)
    return TransversalResult(picks=picks, trace=trace)


def _verify_picks(fam: IndexedFamily, picks: dict):
    for k in fam.keys:
        if picks.get(k) not in fam.sets[k]:
            raise InternalContradictionError(f"pick for {k!r} is not in its set")
    crossing = fam.universe.first_crossing(picks.values())
    if crossing is not None:
        raise InternalContradictionError("picks {} and {} cross".format(*crossing))


# ----------------------------------------------------------------------
# canonical extraction


def extremal_elements(universe: Universe, seps) -> frozenset:
    """Members with an orientation that is maximal among all orientations of the set."""
    table = _OrderTable(universe, {universe.uid(x) for x in seps})
    return frozenset(table.uids(table.extremal((1 << len(table.support)) - 1)))


def _hierarchical_rule(gs, ha, hb, a0, a1, b0, b1, higher, lower):
    # rule "ij" against higher groups, "ji" against lower ones, "inc" against
    # the rest; corners from different sides of a in X and in Y exist iff X
    # meets one side and Y the other
    any_corner, both_b = a0 | a1, b0 & b1
    out = []
    for g in bits(gs):
        bit = 1 << g
        if a0 & a1 & bit:
            continue
        hi, lo = higher[g], lower[g]
        ok = both_b
        if a0 & bit:
            ok |= a1
        if a1 & bit:
            ok |= a0
        if b0 & bit:
            ok |= b1
        if b1 & bit:
            ok |= b0
        bad = (hi & ~any_corner) | ~(hi | lo | ok)
        if not any_corner & bit:
            bad |= lo & ~both_b
        bad &= hb
        if bad:
            out.append((g, bad))
    return out


def splinters_hierarchically(fam: IndexedFamily):
    """The two-condition variant of the splinter predicate.

    Condition (1) applies to strictly comparable index pairs ``i < j``: a
    corner of ``a_i`` and ``a_j`` lies in ``A_j``, or two corners from
    different sides of ``a_i`` lie in ``A_i``.  Condition (2) applies to
    incomparable pairs including ``i == j``: for an anchor ``k`` in ``{i, j}``,
    ``c1`` in ``A_k`` and ``c2`` in ``A_i | A_j`` are corners from different
    sides of ``a_k``; it rules out a single set of two crossing separations
    with no corners inside.  Returns ``(ok, witness)`` as
    :func:`_first_failure` does.
    """
    return _first_failure(fam, fam.levels, _hierarchical_rule)


@dataclass
class CanonicalResult(_Traced):
    """Canonical nested set meeting every family set, plus the recursion trace."""

    nested: frozenset
    trace: list = field(default_factory=list)


def extract_canonical(fam: IndexedFamily) -> CanonicalResult:
    """Canonical nested set meeting every set of a hierarchically splintering family.

    Repeatedly takes the extremal elements of the union of the sets at the
    lowest remaining level (all sets, without levels), drops the sets already
    met, restricts the remaining sets to the elements nested with what was
    taken, and recurses.  The result is
    a pure function of the family and commutes with isomorphisms of
    separation systems.

    Every element taken is extremal in a union of (restricted) family sets,
    so the output lies in ``fam.union_support()``.  The output is checked to
    be nested and to meet every set.  The lemma is constructive: on a family
    that splinters hierarchically every round succeeds, so the extraction
    is its own check and :func:`splinters_hierarchically` runs only after it
    fails, to name the witness (``HierarchicalConditionError``); when the
    family passes, the extraction's ``InternalContradictionError`` is
    re-raised.  Each round meets a key of the lowest level, as the union's
    extremal elements lie in its sets, so there are at most as many rounds
    as keys and every failure is one of those two errors.  On a family that
    does not splinter hierarchically the extraction may still succeed; its
    verified output is then returned, a pure function of the family as
    always, so still canonical.
    """
    try:
        return _canonical(fam)
    except InternalContradictionError:
        ok, witness = splinters_hierarchically(fam)
        if not ok:
            raise HierarchicalConditionError(witness) from None
        raise


def _canonical(fam: IndexedFamily) -> CanonicalResult:
    u, levels, table = fam.universe, fam.levels, fam.order_table
    pos, nest = table.pos, table.nest
    trace: list[dict] = []

    def solve(keys: tuple, sets: dict, depth: int) -> int:
        if not keys:
            return 0
        low = min(levels[k] for k in keys) if levels else None
        minimal = [k for k in keys if not levels or levels[k] == low]
        union = 0
        for k in minimal:
            union |= sets[k]
        extremal = table.extremal(union)
        crossing = u.first_crossing(table.uids(extremal))
        if crossing is not None:
            raise InternalContradictionError("extremal elements {} and {} cross".format(*crossing))
        remaining = [k for k in keys if not (sets[k] & extremal)]
        common = reduce(and_, [nest[e] for e in bits(extremal)], -1)
        restricted = {k: sets[k] & common for k in remaining}
        for k, Ar in restricted.items():
            if not Ar:
                raise InternalContradictionError(f"set {k!r} has no element nested with the extremal set")
        trace.append(
            {
                "depth": depth,
                "event": "extremal",
                "minimal_keys": sorted(repr(k) for k in minimal),
                "extremal": table.uids(extremal),
                "remaining": len(remaining),
            }
        )
        return solve(tuple(remaining), restricted, depth + 1) | extremal

    masks = {k: sum(1 << pos[x] for x in A) for k, A in fam.sets.items()}
    nested = frozenset(table.uids(solve(fam.keys, masks, 0)))
    crossing = u.first_crossing(nested)
    if crossing is not None:
        raise InternalContradictionError("output {} and {} cross".format(*crossing))
    missed = _missed_keys(fam.sets, nested)
    if missed:
        raise InternalContradictionError(f"output misses set {missed[0]!r}")
    return CanonicalResult(nested=nested, trace=trace)


# ----------------------------------------------------------------------
# isomorphisms


def map_family(fam: IndexedFamily, mapping: dict) -> IndexedFamily:
    """Image of a family under an automorphism of its separation system.

    ``mapping`` sends oriented ids of the family's universe to oriented ids
    of the same universe and must be injective, commute with the involution,
    and preserve the order relation on the family's support.
    """
    u = fam.universe
    support = set()
    for s in fam.sets.values():
        for uid in s:
            support.update(u.orientations(uid))
    for o in support:
        if o not in mapping:
            raise SeparationError(f"mapping does not cover oriented separation {o}")
    imgs = [mapping[o] for o in support]
    if len(set(imgs)) != len(imgs):
        raise SeparationError("mapping is not injective on the family's support")
    sup = sorted(support)
    for x in sup:
        if u.inv(mapping[x]) != mapping[u.inv(x)]:
            raise SeparationError("mapping does not commute with the involution")
    for x in sup:
        for y in sup:
            if u.leq(x, y) != u.leq(mapping[x], mapping[y]):
                raise SeparationError("mapping does not preserve the partial order")
    new_sets = {
        k: frozenset(u.uid(mapping[uid]) for uid in s) for k, s in fam.sets.items()
    }
    return IndexedFamily(u, new_sets, levels=fam.levels)
