"""Abstract separation systems: universes of oriented separations, subsystems.

A :class:`Universe` holds finitely many bipartition-style separations over a
ground set.  An oriented separation is a pair ``(A, B)`` of subsets of the
ground set, stored as bitmasks, with ``A | B`` covering the ground set.
``(A, B) <= (C, D)`` iff ``A`` is contained in ``C`` and ``B`` contains ``D``;
the involution swaps the two sides; join is ``(A u C, B n D)`` and meet its
DeMorgan dual ``(A n C, B u D)``.

Orientations are addressed by integer ids ("oids"), assigned in sorted order
of the side-mask pairs and therefore deterministic.  The unoriented
separation underlying an oid is addressed by the smaller id of its two
orientations (its "uid").  Every operation of the abstract layer (``leq``,
``inv``, ``join``, ``meet``, ``nested``, ``corners``, ``is_trivial``) is a
:class:`Universe` method on these ids; ``uid`` and ``uids`` map oids to uids.

A universe is fixed at construction: its separations, ids and orders never
change, and no method caches anything on it.  The per-oid lookups
``sides``, ``inv`` and ``order`` are the item getters of its own tables,
bound once at construction, so each costs one built-in call and still
caches nothing.  The constructor checks that the labels are distinct, that
each pair's sides cover the ground set, that the pairs are closed under
swapping sides and that the order, if any, is non-negative and symmetric;
a pair given more than once counts once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import itemgetter, le, lt, ne, or_
from typing import Callable, Iterable

from .errors import SeparationError, UniverseClosureError

__all__ = ["GroundSet", "Universe", "SubSystem"]


def _no_order(oid: int):
    raise SeparationError("universe has no order function")


def bits(mask: int):
    """Yield the set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_label_type(kinds: dict, v, error: type = SeparationError) -> None:
    """Record label ``v``'s type in ``kinds``; one equal to an earlier label of
    another type (``True`` or ``1.0`` against ``1``) raises ``error``."""
    kind = kinds.setdefault(v, v.__class__)
    if kind is not v.__class__:
        raise error(f"label {v!r} equals a label of type {kind.__name__}")


class GroundSet:
    """The labels of a ground set in a fixed order; ``mask_of`` is the package's one lookup of labels."""

    def __init__(self, labels):
        self.labels = tuple(labels)
        self._label_bit = {v: i for i, v in enumerate(self.labels)}

    def mask_of(self, labels: Iterable) -> int:
        """The mask of ``labels``; a label no ground label is, of its type too
        (``True`` and ``1.0`` are no ``1``), raises ``SeparationError``."""
        m = 0
        for v in labels:
            try:
                i = self._label_bit[v]
            except (KeyError, TypeError) as exc:  # TypeError: an unhashable label
                raise SeparationError(f"unknown ground-set label {v!r}") from exc
            if v.__class__ is not self.labels[i].__class__:
                raise SeparationError(f"label {v!r} is of another type than ground-set label {self.labels[i]!r}")
            m |= 1 << i
        return m

    def labels_of(self, mask: int) -> tuple:
        return tuple(self.labels[i] for i in bits(mask))


class Universe(GroundSet):
    """Finite universe of bipartition-style separations over a ground set.

    ``pairs`` is an iterable of ``(a_mask, b_mask)`` tuples that must be
    closed under swapping sides; a pair given more than once counts once.
    ``order_fn``, if given, maps a mask pair to a non-negative number and
    must be symmetric under the swap.  The constructor raises
    ``SeparationError`` for the first of these faults: duplicate labels,
    then sides that do not cover the ground set, then pairs not closed under
    inversion, then a negative or an asymmetric order, at the first oid
    that has one (negativity first).

    The tables are built in passes of built-ins over the sorted pairs, with
    no Python loop per pair but the ``order_fn`` calls; ``sorted`` takes
    linear time on pairs already in oid order.  The cover and order checks
    compare whole sets and tuples and look for the first faulty oid only
    when one fails.
    ``sides(oid)``, ``inv(oid)`` and ``order(oid)`` are the tables' item
    getters: an oid out of range raises ``IndexError``, and ``order`` on a
    universe without one raises ``SeparationError``.
    """

    def __init__(self, labels, pairs, order_fn: Callable | None = None, kind: str = "custom"):
        super().__init__(labels)
        self.kind = kind
        if len(self._label_bit) != len(self.labels):
            raise SeparationError("duplicate ground-set labels")
        self.full_mask = full = (1 << len(self.labels)) - 1
        plist = sorted(pairs)
        index = dict(zip(plist, count()))
        if len(index) != len(plist):  # repeated pairs: keep the first of each run
            plist = list(index)
            index = dict(zip(plist, count()))
        self._pairs = plist
        self._index = index
        a_sides = tuple(map(itemgetter(0), plist))
        b_sides = tuple(map(itemgetter(1), plist))
        if set(map(or_, a_sides, b_sides)) != {full}:
            for a, b in compress(plist, map(ne, map(or_, a_sides, b_sides), repeat(full))):
                raise SeparationError(f"sides {a:b},{b:b} do not cover the ground set")
        try:
            self._inv = inv = tuple(map(index.__getitem__, zip(b_sides, a_sides)))
        except KeyError as exc:
            raise SeparationError("element set is not closed under inversion") from exc
        if order_fn is None:
            self._order = None
            self.order = _no_order
        else:
            vals = tuple(map(order_fn, a_sides, b_sides))
            swapped = tuple(map(vals.__getitem__, inv))
            # A tuple comparison takes a NaN as equal to itself, where ``ne``
            # does not; the sum is NaN then, and unequal to itself.
            if not (min(vals, default=0) >= 0 and swapped == vals and (total := sum(vals)) == total):
                n = len(vals)
                neg = next(compress(count(), map(lt, vals, repeat(0))), n)
                asym = next(compress(count(), map(ne, swapped, vals)), n)
                if neg < n and neg <= asym:
                    raise SeparationError("order values must be non-negative")
                if asym < n:
                    raise SeparationError("order function must be symmetric under inversion")
            self._order = vals
            self.order = vals.__getitem__
        self.sides = plist.__getitem__
        self.inv = inv.__getitem__
        self._uids = tuple(compress(count(), map(le, count(), inv)))
        self._uid_set = frozenset(self._uids)

    # ------------------------------------------------------------------
    # lookups

    def __len__(self) -> int:
        return len(self._uids)

    @property
    def n_oriented(self) -> int:
        return len(self._pairs)

    @property
    def has_order(self) -> bool:
        return self._order is not None

    def oriented_ids(self):
        return range(len(self._pairs))

    def unoriented_ids(self) -> tuple[int, ...]:
        return self._uids

    def uid(self, oid: int) -> int:
        j = self._inv[oid]
        return oid if oid <= j else j

    def uids(self, oids: Iterable[int]) -> frozenset[int]:
        """The uids of ``oids``, as a frozenset: the set itself when all of
        them are uids, one subset test; else mapped one by one with :meth:`uid`."""
        s = frozenset(oids)
        return s if s <= self._uid_set else frozenset(map(self.uid, s))

    def orientations(self, uid: int) -> tuple[int, int]:
        return uid, self._inv[uid]

    def find(self, a_mask: int, b_mask: int):
        return self._index.get((a_mask, b_mask))

    # ------------------------------------------------------------------
    # order structure

    def leq(self, i: int, j: int) -> bool:
        a1, b1 = self._pairs[i]
        a2, b2 = self._pairs[j]
        return a1 & ~a2 == 0 and b2 & ~b1 == 0

    def join(self, i: int, j: int) -> int:
        a1, b1 = self._pairs[i]
        a2, b2 = self._pairs[j]
        key = (a1 | a2, b1 & b2)
        try:
            return self._index[key]
        except KeyError as exc:
            raise UniverseClosureError(f"join of {i} and {j} is not in the universe") from exc

    def meet(self, i: int, j: int) -> int:
        a1, b1 = self._pairs[i]
        a2, b2 = self._pairs[j]
        key = (a1 & a2, b1 | b2)
        try:
            return self._index[key]
        except KeyError as exc:
            raise UniverseClosureError(f"meet of {i} and {j} is not in the universe") from exc

    def is_trivial(self, oid: int, uids: Iterable[int]) -> bool:
        """Whether ``oid`` is strictly below both orientations of some member of ``uids``."""
        inv, leq = self._inv, self.leq
        return any(oid not in (w, inv[w]) and leq(oid, w) and leq(oid, inv[w]) for w in uids)

    def nested(self, x: int, y: int) -> bool:
        """Whether the separations underlying ``x`` and ``y`` are nested."""
        xi = self._inv[x]
        yi = self._inv[y]
        return self.leq(x, y) or self.leq(x, yi) or self.leq(xi, y) or self.leq(xi, yi)

    def first_crossing(self, ids: Iterable[int]) -> tuple[int, int] | None:
        """The first pair ``a < b`` of the distinct ``ids``, in sorted order,
        whose separations cross; None if they are pairwise nested."""
        vals = sorted(set(ids))
        for i, a in enumerate(vals):
            for b in vals[i + 1 :]:
                if not self.nested(a, b):
                    return a, b
        return None

    def corners(self, u: int, v: int) -> tuple[int | None, ...]:
        """The uids ``(c00, c01, c10, c11)`` of the four tagged corners of two
        unoriented separations; swapping the arguments transposes the tuple.

        ``c_{dr,ds}`` underlies the join of orientation ``dr`` of ``u`` and
        ``ds`` of ``v``, with 0 for the canonical orientation of the argument
        and 1 for its inverse.  As ``meet(u0, v_j)`` is the inverse of
        ``join(u1, v_{1-j})``, the sides of ``u`` are ``{c00, c01}`` and
        ``{c10, c11}``, those of ``v`` are ``{c00, c10}`` and ``{c01, c11}``.
        A universe need not be closed under corners (the clique separations
        of a graph are not): a corner outside it is None in its slot, held
        by no set of separations.
        """
        pairs, get, inv = self._pairs, self._index.get, self._inv
        a, b = pairs[u if u <= inv[u] else inv[u]]
        c, d = pairs[v if v <= inv[v] else inv[v]]
        out = []
        for key in ((a | c, b & d), (a | d, b & c), (b | c, a & d), (b | d, a & c)):
            oid = get(key)
            out.append(oid if oid is None or oid <= inv[oid] else inv[oid])
        return tuple(out)

    def corner_uids(self, u: int, v: int) -> frozenset[int | None]:
        """The set of :meth:`corners`, with None for any corner outside the universe."""
        return frozenset(self.corners(u, v))

    def side_labels(self, oid: int) -> tuple[tuple, tuple]:
        a, b = self._pairs[oid]
        return self.labels_of(a), self.labels_of(b)

    def __repr__(self):
        return f"Universe(kind={self.kind!r}, ground={len(self.labels)}, seps={len(self)})"


@dataclass(frozen=True)
class SubSystem:
    """A subset of the unoriented separations of one universe."""

    universe: Universe
    members: frozenset

    def __post_init__(self):
        uids = self.universe._uid_set
        if not self.members <= uids:
            for m in self.members - uids:
                raise SeparationError(f"{m} is not a canonical separation id of this universe")

    def __len__(self):
        return len(self.members)
