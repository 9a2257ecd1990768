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

A universe's separations, ids and orders are fixed at construction; only
``corner_table`` fills a cache lazily, and a filled entry never changes.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    closed under swapping sides.  ``order_fn``, if given, maps a mask pair to
    a non-negative number and must be symmetric under the swap.
    """

    def __init__(self, labels, pairs, order_fn: Callable | None = None, kind: str = "custom"):
        self.labels = tuple(labels)
        self.kind = kind
        if len(set(self.labels)) != len(self.labels):
            raise SeparationError("duplicate ground-set labels")
        self._label_bit = {v: i for i, v in enumerate(self.labels)}
        self.full_mask = (1 << len(self.labels)) - 1
        plist = sorted(set(pairs))
        index = {}
        for i, (a, b) in enumerate(plist):
            if a | b != self.full_mask:
                raise SeparationError(f"sides {a:b},{b:b} do not cover the ground set")
            index[(a, b)] = i
        self._pairs = plist
        self._index = index
        try:
            self._inv = tuple(index[(b, a)] for a, b in plist)
        except KeyError as exc:
            raise SeparationError("element set is not closed under inversion") from exc
        if order_fn is None:
            self._order = None
        else:
            vals = tuple(order_fn(a, b) for a, b in plist)
            for i, v in enumerate(vals):
                if v < 0:
                    raise SeparationError("order values must be non-negative")
                if vals[self._inv[i]] != v:
                    raise SeparationError("order function must be symmetric under inversion")
            self._order = vals
        self._uids = tuple(i for i in range(len(plist)) if i <= self._inv[i])
        self._uid_set = frozenset(self._uids)
        self._corners: dict[tuple[int, int], tuple[int, int, int, int]] = {}

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

    def corners(self, u: int, v: int) -> tuple[int, int, int, int]:
        """The uids ``(c00, c01, c10, c11)`` of the four tagged corners of two
        unoriented separations, uncached.

        ``c_{dr,ds}`` underlies the join of orientation ``dr`` of ``u`` and
        ``ds`` of ``v``, with 0 for the canonical orientation of the argument
        and 1 for its inverse.  As ``meet(u0, v_j)`` is the inverse of
        ``join(u1, v_{1-j})``, the sides of ``u`` are ``{c00, c01}`` and
        ``{c10, c11}``, those of ``v`` are ``{c00, c10}`` and ``{c01, c11}``.
        """
        pairs, index, inv = self._pairs, self._index, self._inv
        a, b = pairs[u if u <= inv[u] else inv[u]]
        c, d = pairs[v if v <= inv[v] else inv[v]]
        out = []
        for key in ((a | c, b & d), (a | d, b & c), (b | c, a & d), (b | d, a & c)):
            oid = index.get(key)
            if oid is None:
                raise UniverseClosureError(f"a corner of {u} and {v} is not in the universe")
            out.append(oid if oid <= inv[oid] else inv[oid])
        return tuple(out)

    def corner_table(self, u: int, v: int) -> tuple[int, int, int, int]:
        """:meth:`corners`, filled lazily into a table with one entry per
        unoriented pair; swapping the arguments transposes the tuple."""
        inv = self._inv
        if inv[u] < u:
            u = inv[u]
        if inv[v] < v:
            v = inv[v]
        key = (u, v) if u <= v else (v, u)
        got = self._corners.get(key)
        if got is None:
            got = self._corners[key] = self.corners(*key)
        if u > v:
            return got[0], got[2], got[1], got[3]
        return got

    def corner_uids(self, u: int, v: int) -> frozenset[int]:
        return frozenset(self.corner_table(u, v))

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
