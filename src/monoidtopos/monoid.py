"""Finite monoids and the Heyting algebra of their left ideals.

Elements of a monoid are the indices ``0..size-1``; the multiplication
table is one dense array, and composition, principal ideals and the
action on ideals are gathers from it.  Left ideals are bitmasks over
element indices.  Every left ideal is the union of the principal ideals
``Mx`` inside it, so the ideals are the down-sets of the distinct principal
ideals under inclusion (Birkhoff duality), listed by :func:`down_sets` as
codes with one bit per principal ideal, from which :func:`heyting_report`
reads every law.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import CapacityError, StructureError, UsageError

IDEAL_COUNT_CAP = 1 << 16
MONOID_SIZE_CAP = 4096


class FiniteMonoid:
    """A multiplication table together with a designated identity.

    ``mul[a, b]`` is the product ``a*b`` (a read-only array in the narrowest
    unsigned dtype), and ``table[a][b]`` the same in Python ints, built on
    first use.  Associativity is *not* enforced at construction (so that
    :func:`verify_associativity` can report violations); the identity row
    and column are.  ``_associative`` records a proof of associativity:
    :func:`_composition_monoid` and a passing :func:`verify_associativity`
    set it, and :meth:`generators` needs it.
    """

    __slots__ = ("size", "mul", "identity", "names", "_rows", "_reach", "_ideals", "_lattice",
                 "_gens", "_associative")

    def __init__(self, table: Sequence[Sequence[int]], identity: int = 0,
                 names: Optional[Sequence[str]] = None):
        size = len(table)
        if size == 0:
            raise StructureError("multiplication table is empty")
        if size > MONOID_SIZE_CAP:
            raise CapacityError(f"monoid size {size} exceeds cap {MONOID_SIZE_CAP}")
        # an out-of-range entry above the first ragged row is reported first
        square = next((i for i, row in enumerate(table) if len(row) != size), size)
        mul = np.asarray(table[:square]).reshape(square, size)
        bad = mul[(mul < 0) | (mul >= size)]
        if len(bad):
            raise StructureError(f"table entry {bad[0]} out of range 0..{size - 1}")
        if square < size:
            raise StructureError("multiplication table is not square")
        if not 0 <= identity < size:
            raise StructureError(f"identity index {identity} out of range")
        self._own(mul.astype(np.min_scalar_type(size - 1)), identity, names)

    def _own(self, mul: np.ndarray, identity: int, names: Optional[Sequence[str]]):
        """Take ``mul``, a square in-range table of the narrow dtype that no
        caller holds, as the read-only table, and check the identity."""
        self.size = size = len(mul)
        self.mul = mul
        mul.flags.writeable = False
        ident = np.arange(size)
        if np.count_nonzero((mul[identity] != ident) | (mul[:, identity] != ident)):
            raise StructureError("identity row/column is not the identity permutation")
        if names is not None:
            names = tuple(str(n) for n in names)
            if len(names) != size:
                raise StructureError("need exactly one name per element")
        self.identity = identity
        self.names = names
        self._rows: Optional[tuple[tuple[int, ...], ...]] = None
        self._reach: Optional[tuple[int, ...]] = None
        self._ideals: Optional[tuple[tuple["LeftIdeal", ...], np.ndarray]] = None
        self._lattice: Optional[tuple[np.ndarray, ...]] = None
        self._gens: Optional[tuple[int, ...]] = None
        self._associative = False

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        self._rows = self._rows or tuple(map(tuple, self.mul.tolist()))
        return self._rows

    def reach_masks(self) -> tuple[int, ...]:
        """For each element x, the bitmask of {m*x | m in M} (its principal left ideal)."""
        if self._reach is None:
            self._reach = tuple(orbit_masks(self.mul))
        return self._reach

    def generators(self) -> Optional[tuple[int, ...]]:
        """A generating set (every element is the identity or a product of
        these), or None while the monoid is not known to be associative.

        Elements are taken by descending size of their principal ideal Mx, and
        each one not yet reached by right products of those chosen becomes a
        generator; the reached set then grows by a breadth-first right-Cayley
        search (Froidure & Pin 1997).  map_monoid(k) gets k of them for k >= 2.
        """
        if self._gens is None and self._associative:
            mul, gens = self.mul, []
            reached = np.zeros(self.size, dtype=bool)
            reached[self.identity] = True
            sizes = np.array([mask.bit_count() for mask in self.reach_masks()])
            for x in np.argsort(-sizes, kind="stable").tolist():
                if reached[x]:
                    continue
                gens.append(x)
                frontier, step = np.flatnonzero(reached), [x]   # new elements are r·x·w
                while frontier.size:
                    fresh = np.zeros(self.size, dtype=bool)   # a mark array, not np.unique
                    fresh[mul[frontier[:, None], step]] = True
                    fresh &= ~reached
                    reached |= fresh
                    frontier, step = np.flatnonzero(fresh), gens
            self._gens = tuple(gens)
        return self._gens

    def empty_ideal(self) -> "LeftIdeal":
        return LeftIdeal(self, 0)

    def full_ideal(self) -> "LeftIdeal":
        return LeftIdeal(self, (1 << self.size) - 1)

    def ideal(self, members: Iterable[int]) -> "LeftIdeal":
        mask = 0
        for i in members:
            if not 0 <= i < self.size:
                raise StructureError(f"element index {i} out of range")
            mask |= 1 << i
        return LeftIdeal(self, mask)

    def __repr__(self):
        return f"FiniteMonoid(size={self.size})"


def verify_associativity(m: FiniteMonoid) -> bool:
    """Exhaustive check of ``(ab)c == a(bc)`` over all triples, one a at a time.
    A pass is recorded on the monoid, so that :meth:`FiniteMonoid.generators` is defined."""
    m._associative = not any(np.count_nonzero(m.mul.take(row, axis=0) != row.take(m.mul))
                             for row in m.mul)
    return m._associative


def orbit_masks(table: np.ndarray) -> list[int]:
    """For each column i of an action table, the bitmask of {table[m, i] | m}."""
    hit = np.zeros((table.shape[1],) * 2, dtype=bool)
    hit[np.arange(table.shape[1]), table] = True
    return row_masks(hit)


def row_masks(rows: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as the bitmask of its true columns."""
    return [int.from_bytes(row, "little") for row in np.packbits(rows, axis=1, bitorder="little")]


def mask_rows(masks: Sequence[int], size: int) -> np.ndarray:
    """Bitmasks as boolean rows of length size, the inverse of :func:`row_masks`."""
    raw = b"".join(mask.to_bytes(size // 8 + 1, "little") for mask in masks)
    return np.unpackbits(np.frombuffer(raw, np.uint8).reshape(len(masks), size // 8 + 1),
                         axis=1, count=size, bitorder="little").view(bool)


@functools.lru_cache(maxsize=None)
def _numerals(size: int) -> tuple[str, ...]:
    """The default element names '0', '1', ..."""
    return tuple(map(str, range(size)))


def _is_ideal_mask(m: FiniteMonoid, mask: int) -> bool:
    reach, rest = m.reach_masks(), mask
    while rest:
        low = rest & -rest
        if reach[low.bit_length() - 1] & ~mask:
            return False
        rest ^= low
    return True


@dataclass(frozen=True)
class LeftIdeal:
    """A left ideal of a finite monoid, stored as a bitmask of members.

    Construction validates the ideal condition ``m*i in I`` for every
    element m and member i.
    """

    monoid: FiniteMonoid
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.monoid.size):
            raise StructureError("ideal mask out of range for this monoid")
        if not _is_ideal_mask(self.monoid, self.mask):
            raise StructureError("set is not a left ideal")

    @classmethod
    def _known(cls, monoid: FiniteMonoid, mask: int) -> "LeftIdeal":
        """An ideal whose mask is known to be one, made without the check."""
        ideal = object.__new__(cls)
        ideal.__dict__.update(monoid=monoid, mask=mask)
        return ideal

    @property
    def members(self) -> frozenset[int]:
        return frozenset(i for i in range(self.monoid.size) if self.mask >> i & 1)

    def member_names(self) -> tuple[str, ...]:
        """The members' names in element order, read off the mask's bits."""
        bits = map("1".__eq__, bin(self.mask)[:1:-1])   # character i is bit i
        return tuple(itertools.compress(self.monoid.names or _numerals(self.monoid.size), bits))

    def __contains__(self, elem: int) -> bool:
        return bool(self.mask >> elem & 1)

    def __len__(self):
        return self.mask.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_full(self) -> bool:
        return self.mask == (1 << self.monoid.size) - 1

    def _check_same(self, other: "LeftIdeal"):
        if self.monoid is not other.monoid:
            raise UsageError("ideals belong to different monoids")

    def __and__(self, other: "LeftIdeal") -> "LeftIdeal":
        self._check_same(other)
        return LeftIdeal(self.monoid, self.mask & other.mask)

    def __or__(self, other: "LeftIdeal") -> "LeftIdeal":
        self._check_same(other)
        return LeftIdeal(self.monoid, self.mask | other.mask)

    def __le__(self, other: "LeftIdeal") -> bool:
        self._check_same(other)
        return self.mask & ~other.mask == 0

    def __hash__(self):
        return hash((id(self.monoid), self.mask))

    def __repr__(self):
        names = ",".join(self.member_names())
        return f"LeftIdeal({{{names}}})"


def ideal_action(m: int, ideal: LeftIdeal) -> LeftIdeal:
    """The monoid action on ideals: the set of m' with ``m'*m`` in the ideal."""
    mon = ideal.monoid
    if not 0 <= m < mon.size:
        raise UsageError(f"element index {m} out of range")
    return LeftIdeal(mon, row_masks(mask_rows([ideal.mask], mon.size)[:, mon.mul[:, m]])[0])


def heyting_implies(lhs: LeftIdeal, rhs: LeftIdeal) -> LeftIdeal:
    """Relative pseudo-complement: the m with action(m, lhs) <= action(m, rhs),
    i.e. whose principal ideal Mm meets lhs only inside rhs."""
    lhs._check_same(rhs)
    outside = lhs.mask & ~rhs.mask
    return LeftIdeal(lhs.monoid, sum(1 << m for m, reach in enumerate(lhs.monoid.reach_masks())
                                    if reach & outside == 0))


def heyting_not(ideal: LeftIdeal) -> LeftIdeal:
    return heyting_implies(ideal, ideal.monoid.empty_ideal())


def enumerate_left_ideals(m: FiniteMonoid) -> list[LeftIdeal]:
    """All left ideals, sorted by (size, mask); always contains 0 and M.  Each
    is a union of principal ideals, which ``ideal_lattice`` has checked, so
    none is checked again."""
    return list(_sorted_ideals(m)[0])


def _sorted_ideals(m: FiniteMonoid) -> tuple[tuple[LeftIdeal, ...], np.ndarray]:
    """The ideals of :func:`enumerate_left_ideals` and, for each, its row of
    :func:`ideal_lattice`'s codes, kept on the monoid."""
    if m._ideals is None:
        codes, cls, _, _ = ideal_lattice(m)
        masks = row_masks(codes[:, cls])
        rows = sorted(range(len(masks)), key=lambda i: (masks[i].bit_count(), masks[i]))
        m._ideals = tuple(LeftIdeal._known(m, masks[i]) for i in rows), np.array(rows, np.intp)
    return m._ideals


def ideal_lattice(m: FiniteMonoid) -> tuple[np.ndarray, ...]:
    """:func:`down_sets` of the principal ideals Mx, kept on the monoid; each Mx
    is checked to be a left ideal, which it is when the table is associative."""
    if m._lattice is None:
        for mask in set(m.reach_masks()):
            LeftIdeal(m, mask)
        m._lattice = down_sets(m.reach_masks(), "ideal lattice")
    return m._lattice


def down_sets(orbits: Sequence[int], what: str) -> tuple[np.ndarray, ...]:
    """The unions of an action's orbits, ``orbits[x]`` being the mask of M·x, as
    the down-sets of the distinct orbits under inclusion, ordered by (size, mask):
    ``(codes, cls, reps, under)``, where ``codes[i, j]`` says orbit j lies in union
    i (the empty union first), x has orbit ``cls[x]`` (so ``codes[:, cls]`` are the
    unions' members), ``reps[j]`` lies in orbit j and ``under[j, i]`` says orbit i
    lies strictly inside orbit j.  Past IDEAL_COUNT_CAP unions it raises CapacityError."""
    ordered = sorted(set(orbits), key=lambda k: (k.bit_count(), k))
    index = {k: j for j, k in enumerate(ordered)}
    cls = np.array([index[k] for k in orbits], dtype=np.intp)
    reps = np.empty(len(ordered), dtype=np.intp)
    reps[cls] = np.arange(len(cls))
    # x lies in an orbit iff its orbit is inside it
    under = mask_rows(ordered, len(cls))[:, reps] & ~np.eye(len(ordered), dtype=bool)
    codes = np.zeros((1, len(ordered)), dtype=bool)
    for j, below in enumerate(under):   # keep every row, and add those holding below with bit j
        grow = (codes >= below).all(axis=1)
        if len(codes) + np.count_nonzero(grow) > IDEAL_COUNT_CAP:
            raise CapacityError(f"{what} exceeds configured cap")
        codes = np.concatenate((codes, codes[grow]))
        codes[len(grow):, j] = True
    return codes, cls, reps, under


def row_index(rows: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """For each boolean query row, the index of an equal row of ``rows``, or -1
    (rows are compared as packed bytes; np.isin would import numpy.ma)."""
    packed = [np.ascontiguousarray(np.packbits(bits, axis=-1)) for bits in (rows, queries)]
    known, asked = (p.view(np.dtype((np.void, p.shape[-1])))[..., 0] for p in packed)
    order = np.argsort(known)
    at = order[np.minimum(np.searchsorted(known[order], asked), len(known) - 1)]
    return np.where(known[at] == asked, at, -1)


def map_monoid(k: int) -> FiniteMonoid:
    """The monoid of all self-maps of {0..k-1} under composition.

    Element i is the map whose value tuple is the i-th in lexicographic
    order; names are 'f' followed by the value digits (so on two points
    'f01' is the identity, 'f10' the swap, 'f00'/'f11' the constants).
    """
    if k < 1:
        raise StructureError("need at least one point")
    if k ** k > MONOID_SIZE_CAP:
        raise CapacityError(f"map monoid on {k} points exceeds size cap")
    # Element g is the map whose base-k code is g, so digit x of g is g(x), and f∘g is
    # the element whose digit x is f(g(x)).  Row f of the codes is a sum over the digits
    # of g, grown from the last digit so that the contiguous axis is the long one.
    n = k ** k
    values = np.ascontiguousarray(np.indices((k,) * k, np.min_scalar_type(n - 1)).reshape(k, n).T)
    codes = np.zeros((n, 1), dtype=values.dtype)
    for x in reversed(range(k)):
        grown = np.empty((n, k * codes.shape[1]), dtype=codes.dtype)   # the last is adopted
        np.add(values[:, :, None] * k ** (k - 1 - x), codes[:, None, :], out=grown.reshape(n, k, -1))
        codes = grown
    return _map_monoid_of(map_monoid_values(k), codes)


def map_monoid_values(k: int) -> list[tuple[int, ...]]:
    """Value tuples of map_monoid(k) elements, in element order."""
    return list(itertools.product(range(k), repeat=k))


def submonoid_closure(generator_maps: Iterable[tuple[int, ...]], k: int,
                      max_size: int = MONOID_SIZE_CAP) -> FiniteMonoid:
    """Smallest composition-closed monoid of self-maps of {0..k-1}
    containing the generators (the identity is always adjoined)."""
    return _composition_monoid(closure_maps(generator_maps, k, max_size))


def closure_maps(generator_maps: Iterable[tuple[int, ...]], k: int,
                 max_size: int = MONOID_SIZE_CAP) -> list[tuple[int, ...]]:
    """The sorted value tuples of :func:`submonoid_closure`'s elements,
    before any table is built."""
    ident = tuple(range(k))
    gens = [tuple(g) for g in generator_maps]
    for g in gens:
        if len(g) != k or any(not 0 <= v < k for v in g):
            raise StructureError("generator is not a self-map of the point set")
    # Every element is a product of generators, so a breadth-first search
    # from the identity that composes on the right with each generator
    # reaches the whole monoid (Froidure & Pin 1997).  ``found`` is its queue.
    found, seen = [ident], {ident}
    for f in found:
        for g in gens:
            h = tuple(map(f.__getitem__, g))
            if h not in seen:
                seen.add(h)
                found.append(h)
                if len(found) > max_size:
                    raise CapacityError("closure exceeded size cap")
    return sorted(found)


def _composition_monoid(maps: list[tuple[int, ...]]) -> FiniteMonoid:
    """The sorted self-maps of {0..k-1} (the identity among them) under composition.
    Digit x of the base-k code of f∘g is ``values[f, values[g, x]]``, and f∘g is
    found among the maps' own sorted codes."""
    k, n = len(maps[0]), len(maps)
    values = np.array(maps, dtype=np.min_scalar_type(k - 1))
    own = np.zeros(n, dtype=np.min_scalar_type(k ** k - 1))  # object from k = 17
    for x in range(k):
        own = own * k + values[:, x]
    table, rows = np.empty((n, n), dtype=np.min_scalar_type(n - 1)), max(1, (1 << 20) // n)
    for i in range(0, n, rows):   # row blocks keep the codes and searchsorted's int64 result small
        codes = np.zeros((len(values[i:i + rows]), n), dtype=own.dtype)
        for x in range(k):
            codes = codes * k + values[i:i + rows].take(values[:, x], axis=1)
        table[i:i + rows] = own.searchsorted(codes)
    return _map_monoid_of(maps, table)


def _map_monoid_of(maps: list[tuple[int, ...]], table: np.ndarray) -> FiniteMonoid:
    """The sorted self-maps of {0..k-1} with their fresh composition table, each
    named 'f' followed by its value digits."""
    k = len(maps[0])
    monoid = FiniteMonoid.__new__(FiniteMonoid)
    monoid._own(table, maps.index(tuple(range(k))), [("f" + "%d" * k) % f for f in maps])
    monoid._associative = True   # composition of maps is associative
    return monoid


# ---------------------------------------------------------------------------
# Heyting law verification


HEYTING_LAW_NAMES = (
    "closure_meet", "closure_join", "closure_implies", "closure_not",
    "commutative", "associative", "idempotent", "absorption",
    "bounds", "distributive", "residuation",
)


def heyting_report(m: FiniteMonoid) -> dict:
    """Verify the Heyting-algebra laws on the enumerated ideals, coded by the
    principal ideals inside them.  Returns a dict with the ideal count, a
    pass/fail flag per law, and the list of ideals witnessing failure of
    excluded middle (join with their negation below the full ideal)."""
    ideals, rows = _sorted_ideals(m)
    every, _, _, under = ideal_lattice(m)
    codes = every[rows]
    neg = ~(codes | codes @ under.T)   # bit j of ¬a: no bit of a is j or below it
    found = row_index(codes, np.concatenate((every, neg))) >= 0
    holes = every[~found[:len(every)]]
    # Meet and join are & and |, so commutativity, associativity, idempotence, absorption,
    # the bounds and distributivity are bit-vector identities; residuation holds as every
    # code z is a down-set: z & a <= b iff bit j of a => b is set for each j in z.
    laws = dict.fromkeys(HEYTING_LAW_NAMES, True)
    laws["closure_not"] = bool(found[len(every):].all())
    if len(holes):
        # A closure law fails only at a hole h: meet if h is the meet of the members
        # around it, join if the join of those within it, implication if h = a => b
        # for members a reaching its minimal outsiders and b within h, h & a <= b.
        within, around = ~(~holes @ codes.T), ~(holes @ ~codes.T)
        reaching = ~((~holes & ~(~holes @ under.T)) @ ~codes.T)
        laws["closure_meet"] = not (around.any(1) & (~(around @ ~codes) == holes).all(1)).any()
        laws["closure_join"] = not (within.any(1) & ((within @ codes) == holes).all(1)).any()
        laws["closure_implies"] = not any((~((codes[tops] & h) @ ~codes[subs].T)).any()
                                          for h, tops, subs in zip(holes, reaching, within))
    names = [i.member_names() for i in ideals]
    return {
        "size": m.size,
        "ideal_count": len(ideals),
        "ideals": names,
        "laws": laws,
        "all_laws_hold": all(laws.values()),
        "excluded_middle_failures": [names[i] for i in np.flatnonzero(~(codes | neg).all(axis=1))],
    }
