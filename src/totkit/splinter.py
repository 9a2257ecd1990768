"""Splinter predicates and nested-transversal extraction.

An indexed family assigns a non-empty set of separations of one universe to
each key, optionally with a level value per key and a strict partial order
on keys.  The two extraction routines implement the inductive arguments
behind the two main lemmas directly:

* :func:`extract_transversal` picks one element per set, pairwise nested,
  whenever the family splinters, by a pivot scan: the first element (in
  canonical id order) nested with some element of every set is picked and
  the other sets are restricted to the elements nested with it, which keeps
  the family splintering by the Fish Lemma.  It takes polynomially many
  nested tests; runs are reproducible but not isomorphism-invariant.
* :func:`extract_canonical` returns a nested set meeting every member set
  whenever the family splinters hierarchically; it makes no arbitrary
  choices at all, and commutes with every isomorphism of separation systems
  that preserves the family.

Every run re-verifies its own output (nested, meets every set) and raises
instead of returning an unverified result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    HierarchicalConditionError,
    InternalContradictionError,
    SeparationError,
    SplinterConditionError,
)
from .sepsys import Universe

__all__ = [
    "IndexedFamily",
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

    ``levels`` optionally assigns a comparable value to each key; the strict
    partial order ``prec`` may be given explicitly as ordered key pairs or
    derived from the levels (smaller level strictly precedes larger).
    """

    def __init__(self, universe: Universe, sets, levels=None, prec=None, excluded=()):
        self.universe = universe
        if isinstance(sets, dict):
            items = list(sets.items())
        else:
            items = list(enumerate(sets))
        if not items and prec:
            raise SeparationError("order given for an empty family")
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
        if prec is not None:
            self.prec = frozenset(prec)
        elif self.levels:
            self.prec = frozenset(
                (a, b)
                for a in self.keys
                for b in self.keys
                if a != b and self.levels[a] < self.levels[b]
            )
        else:
            self.prec = frozenset()
        self._check_strict_order()
        self.excluded = tuple(excluded)

    def _check_strict_order(self):
        keys = set(self.keys)
        for a, b in self.prec:
            if a not in keys or b not in keys:
                raise SeparationError(f"order references unknown key {(a, b)!r}")
            if a == b or (b, a) in self.prec:
                raise SeparationError("index order is not a strict partial order")
        for a, b in self.prec:
            for c in self.keys:
                if (b, c) in self.prec and (a, c) not in self.prec:
                    raise SeparationError("index order is not transitive")

    def __len__(self):
        return len(self.keys)

    def restrict(self, keys, sets) -> "IndexedFamily":
        sub = IndexedFamily.__new__(IndexedFamily)
        sub.universe = self.universe
        sub.keys = tuple(keys)
        sub.sets = {k: sets[k] for k in keys}
        keyset = set(keys)
        sub.levels = (
            {k: self.levels[k] for k in keys} if self.levels is not None else None
        )
        sub.prec = frozenset((a, b) for a, b in self.prec if a in keyset and b in keyset)
        sub.excluded = ()
        return sub

    def union_support(self) -> frozenset:
        out = set()
        for s in self.sets.values():
            out |= s
        return frozenset(out)

    def __repr__(self):
        return f"IndexedFamily({len(self.keys)} sets, universe={self.universe!r})"


# ----------------------------------------------------------------------
# the splinter predicate


def splinters(fam: IndexedFamily):
    """Whether every crossing cross-set pair has a corner in the sets' union.

    Returns ``(ok, witness)``; the witness is the first violating tuple
    ``(key_i, key_j, a_i, a_j)`` in canonical order, or None.
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


def extract_transversal(fam: IndexedFamily, debug: bool = False) -> TransversalResult:
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

    Keys with identical sets are solved once and share one pick, so the
    work is O(n * |union| * sum |A_i|) nested tests for n distinct sets,
    and the trace has one entry per distinct set.  Requires the family to
    splinter; with ``debug`` every restricted family is re-checked.
    """
    first_key: dict = {}
    for k in fam.keys:
        first_key.setdefault(fam.sets[k], k)
    distinct = fam.restrict(list(first_key.values()), fam.sets)
    ok, witness = splinters(distinct)
    if not ok:
        raise SplinterConditionError(witness)
    u = fam.universe
    trace: list[dict] = []
    chosen: dict = {}
    items = [(k, A) for A, k in first_key.items()]
    while len(items) > 1:
        union = set()
        for _, A in items:
            union |= A
        pivot = next(
            (
                x
                for x in sorted(union)
                if all(any(u.nested(x, y) for y in A) for _, A in items)
            ),
            None,
        )
        if pivot is None:
            raise InternalContradictionError(
                "no element is nested with some element of every remaining set"
            )
        pivot_key = next(k for k, A in items if pivot in A)
        chosen[pivot_key] = pivot
        items = [
            (k, frozenset(y for y in A if u.nested(y, pivot)))
            for k, A in items
            if k != pivot_key
        ]
        trace.append(
            {
                "depth": len(trace),
                "event": "pivot",
                "key": repr(pivot_key),
                "pick": pivot,
                "restricted_sizes": [len(A) for _, A in items],
            }
        )
        if debug:
            ok2, wit2 = splinters(fam.restrict([k for k, _ in items], dict(items)))
            if not ok2:
                raise InternalContradictionError(
                    f"restricted family lost the splinter property: {wit2!r}"
                )
    if items:
        k, A = items[0]
        chosen[k] = min(A)
        trace.append({"depth": len(trace), "event": "single", "key": repr(k), "pick": chosen[k]})
    picks = {k: chosen[first_key[fam.sets[k]]] for k in fam.keys}
    _verify_picks(fam, picks)
    return TransversalResult(picks=picks, trace=trace)


def _verify_picks(fam: IndexedFamily, picks: dict):
    u = fam.universe
    for k in fam.keys:
        if picks.get(k) not in fam.sets[k]:
            raise InternalContradictionError(f"pick for {k!r} is not in its set")
    crossing = u.first_crossing(picks.values())
    if crossing is not None:
        raise InternalContradictionError("picks {} and {} cross".format(*crossing))


# ----------------------------------------------------------------------
# canonical extraction


def extremal_elements(universe: Universe, seps) -> frozenset:
    """Members with an orientation that is maximal among all orientations of the set."""
    A = [universe.uid(x) for x in seps]
    oriented = sorted({o for uid in A for o in universe.orientations(uid)})
    out = set()
    for uid in A:
        for o in universe.orientations(uid):
            if not any(universe.lt(o, y) for y in oriented):
                out.add(uid)
                break
    return frozenset(out)


def splinters_hierarchically(fam: IndexedFamily):
    """The two-condition variant of the splinter predicate.

    Condition (1) applies to strictly comparable index pairs ``i < j``: a
    corner of ``a_i`` and ``a_j`` lies in ``A_j``, or two corners from
    different sides of ``a_i`` lie in ``A_i``.  Condition (2) applies to
    incomparable pairs including ``i == j``: for an anchor ``k`` in ``{i, j}``,
    ``c1`` in ``A_k`` and ``c2`` in ``A_i | A_j`` are corners from different
    sides of ``a_k``; it rules out a single set of two crossing separations
    with no corners inside.

    Corners come from :meth:`Universe.corner_table`, where each side is a
    fixed pair of slots, so corners from different sides in X and in Y exist
    iff X meets one side and Y the other.  A key pair whose class (A_i, A_j,
    relation), which alone decides its verdict, has passed is skipped: the
    cost is O(sum |A_i| |A_j|) table lookups over the distinct classes.
    Returns ``(ok, witness)``, the first violating ``(key_i, key_j, a_i, a_j)``.
    """
    table = fam.universe.corner_table
    keys, sets, prec = fam.keys, fam.sets, fam.prec
    set_ids: dict = {}
    ids = [set_ids.setdefault(sets[k], len(set_ids)) for k in keys]
    passed = set()
    for ii, ki in enumerate(keys):
        Ai = sets[ki]
        for jj in range(ii, len(keys)):
            kj = keys[jj]
            rel = "ij" if (ki, kj) in prec else "ji" if (kj, ki) in prec else "inc"
            cls = (ids[ii], ids[jj], rel)
            if cls in passed:
                continue
            Aj = sets[kj]
            union = Ai | Aj
            Bj = sorted(Aj)
            for a in sorted(Ai):
                for b in Bj:
                    # sides of a: {c00, c01}, {c10, c11}; of b: {c00, c10}, {c01, c11}
                    c00, c01, c10, c11 = table(a, b)
                    if rel == "ij":
                        ok = (c00 in Aj or c01 in Aj or c10 in Aj or c11 in Aj) or (
                            (c00 in Ai or c01 in Ai) and (c10 in Ai or c11 in Ai)
                        )
                    elif rel == "ji":
                        ok = (c00 in Ai or c01 in Ai or c10 in Ai or c11 in Ai) or (
                            (c00 in Aj or c10 in Aj) and (c01 in Aj or c11 in Aj)
                        )
                    else:
                        ok = (
                            ((c00 in Ai or c01 in Ai) and (c10 in union or c11 in union))
                            or ((c10 in Ai or c11 in Ai) and (c00 in union or c01 in union))
                            or ((c00 in Aj or c10 in Aj) and (c01 in union or c11 in union))
                            or ((c01 in Aj or c11 in Aj) and (c00 in union or c10 in union))
                        )
                    if not ok:
                        return False, (ki, kj, a, b)
            passed.add(cls)
    return True, None


@dataclass
class CanonicalResult(_Traced):
    """Canonical nested set meeting every family set, plus the recursion trace."""

    nested: frozenset
    trace: list = field(default_factory=list)


def extract_canonical(
    fam: IndexedFamily,
    precheck: bool = True,
) -> CanonicalResult:
    """Canonical nested set meeting every set of a hierarchically splintering family.

    Repeatedly takes the extremal elements of the union of the sets with
    minimal index, drops the sets already met, restricts the remaining sets
    to the elements nested with what was taken, and recurses.  The result is
    a pure function of the family and commutes with isomorphisms of
    separation systems.

    Every element taken is extremal in a union of (restricted) family sets,
    so the output lies in ``fam.union_support()``.  ``precheck=False`` skips the
    hierarchical-splinter precondition; callers may do so when the family is
    an isomorphic image of one already checked (the condition is invariant
    under isomorphisms of separation systems).  The internal nestedness and
    coverage checks still run either way.
    """
    if precheck:
        ok, witness = splinters_hierarchically(fam)
        if not ok:
            raise HierarchicalConditionError(witness)
    u = fam.universe
    trace: list[dict] = []
    preds: dict = {k: set() for k in fam.keys}
    for a, b in fam.prec:
        preds[b].add(a)

    def solve(keys: tuple, sets: dict, depth: int) -> frozenset:
        if not keys:
            return frozenset()
        keyset = set(keys)
        minimal = [k for k in keys if preds[k].isdisjoint(keyset)]
        union = set()
        for k in minimal:
            union |= sets[k]
        extremal = extremal_elements(u, union)
        crossing = u.first_crossing(extremal)
        if crossing is not None:
            raise InternalContradictionError(
                "extremal elements {} and {} cross; hierarchical condition was violated".format(*crossing)
            )
        remaining = [k for k in keys if not (sets[k] & extremal)]
        restricted = {}
        for k in remaining:
            Ar = frozenset(
                x for x in sets[k] if all(u.nested(x, e) for e in extremal)
            )
            if not Ar:
                raise InternalContradictionError(
                    f"set {k!r} has no element nested with the extremal set"
                )
            restricted[k] = Ar
        trace.append(
            {
                "depth": depth,
                "event": "extremal",
                "minimal_keys": sorted(repr(k) for k in minimal),
                "extremal": sorted(extremal),
                "remaining": len(remaining),
            }
        )
        return solve(tuple(remaining), restricted, depth + 1) | extremal

    nested = solve(fam.keys, dict(fam.sets), 0)
    crossing = u.first_crossing(nested)
    if crossing is not None:
        raise InternalContradictionError("output {} and {} cross".format(*crossing))
    for k in fam.keys:
        if not (fam.sets[k] & nested):
            raise InternalContradictionError(f"output misses set {k!r}")
    return CanonicalResult(nested=nested, trace=trace)


# ----------------------------------------------------------------------
# isomorphisms


def map_family(fam: IndexedFamily, mapping: dict, target: Universe | None = None) -> IndexedFamily:
    """Image of a family under an isomorphism of separation systems.

    ``mapping`` sends oriented ids to oriented ids (of ``target``, defaulting
    to the family's universe) and must be injective, commute with the
    involution, and preserve the order relation on the family's support.
    """
    u = fam.universe
    t = target if target is not None else u
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
        if t.inv(mapping[x]) != mapping[u.inv(x)]:
            raise SeparationError("mapping does not commute with the involution")
    for x in sup:
        for y in sup:
            if u.leq(x, y) != t.leq(mapping[x], mapping[y]):
                raise SeparationError("mapping does not preserve the partial order")
    new_sets = {
        k: frozenset(t.uid(mapping[uid]) for uid in s) for k, s in fam.sets.items()
    }
    return IndexedFamily(t, new_sets, levels=fam.levels, prec=fam.prec)
