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
``inv``, ``join``, ``meet``, ``nested``, ``corners``, ``is_small``,
``is_trivial``) is a :class:`Universe` method on these ids.

A universe is fixed at construction: its separations, ids and orders never
change, and no method caches anything on it.  The constructor checks that
the labels are distinct, that each pair's sides cover the ground set, that
the pairs are closed under swapping sides and that the order, if any, is
non-negative and symmetric; a pair given more than once counts once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import itemgetter, le, lt, ne, or_
from typing import Callable, Iterable

from .errors import SeparationError, UniverseClosureError

__all__ = ["Universe", "SubSystem"]


def bits(mask: int):
    """Yield the set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Universe:
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
    linear time on pairs already in oid order.
    """

    def __init__(self, labels, pairs, order_fn: Callable | None = None, kind: str = "custom"):
        self.labels = tuple(labels)
        self.kind = kind
        if len(set(self.labels)) != len(self.labels):
            raise SeparationError("duplicate ground-set labels")
        self._label_bit = {v: i for i, v in enumerate(self.labels)}
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
        for a, b in compress(plist, map(ne, map(or_, a_sides, b_sides), repeat(full))):
            raise SeparationError(f"sides {a:b},{b:b} do not cover the ground set")
        try:
            self._inv = inv = tuple(map(index.__getitem__, zip(b_sides, a_sides)))
        except KeyError as exc:
            raise SeparationError("element set is not closed under inversion") from exc
        if order_fn is None:
            self._order = None
        else:
            vals = tuple(map(order_fn, a_sides, b_sides))
            n = len(vals)
            neg = next(compress(count(), map(lt, vals, repeat(0))), n)
            asym = next(compress(count(), map(ne, map(vals.__getitem__, inv), vals)), n)
            if neg < n and neg <= asym:
                raise SeparationError("order values must be non-negative")
            if asym < n:
                raise SeparationError("order function must be symmetric under inversion")
            self._order = vals
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

    def inv(self, oid: int) -> int:
        return self._inv[oid]

    def sides(self, oid: int) -> tuple[int, int]:
        return self._pairs[oid]

    def uid(self, oid: int) -> int:
        j = self._inv[oid]
        return oid if oid <= j else j

    def orientations(self, uid: int) -> tuple[int, int]:
        return uid, self._inv[uid]

    def find(self, a_mask: int, b_mask: int):
        return self._index.get((a_mask, b_mask))

    def order(self, oid: int):
        if self._order is None:
            raise SeparationError("universe has no order function")
        return self._order[oid]

    # ------------------------------------------------------------------
    # order structure

    def leq(self, i: int, j: int) -> bool:
        a1, b1 = self._pairs[i]
        a2, b2 = self._pairs[j]
        return a1 & ~a2 == 0 and b2 & ~b1 == 0

    def lt(self, i: int, j: int) -> bool:
        return i != j and self.leq(i, j)

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

    def is_small(self, oid: int) -> bool:
        return self.leq(oid, self._inv[oid])

    def is_trivial(self, oid: int, uids: Iterable[int]) -> bool:
        """Whether ``oid`` is strictly below both orientations of some member of ``uids``."""
        return any(self.lt(oid, w) and self.lt(oid, self._inv[w]) for w in uids)

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

    # ------------------------------------------------------------------
    # labels

    def mask_of(self, labels: Iterable) -> int:
        m = 0
        for v in labels:
            try:
                m |= 1 << self._label_bit[v]
            except (KeyError, TypeError) as exc:  # TypeError: an unhashable label
                raise SeparationError(f"unknown ground-set label {v!r}") from exc
        return m

    def labels_of(self, mask: int) -> tuple:
        return tuple(self.labels[i] for i in bits(mask))

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
        for m in self.members - self.universe._uid_set:
            raise SeparationError(f"{m} is not a canonical separation id of this universe")

    def __len__(self):
        return len(self.members)
