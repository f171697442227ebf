"""Finite monoids and the Heyting algebra of their left ideals.

Elements of a monoid are the indices ``0..size-1``; the multiplication
table is one dense array, and composition, principal ideals and the
action on ideals are gathers from it.  Left ideals are bitmasks over
element indices.  Every left ideal is the union of the principal ideals
``Mx`` inside it, so :func:`heyting_report` codes each ideal by one bit
per distinct principal ideal and checks every law, on every pair and
triple of ideals, as numpy identities on those codes.
"""

from __future__ import annotations

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

    __slots__ = ("size", "mul", "identity", "names", "_rows", "_reach", "_ideals", "_gens",
                 "_associative")

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
        self._ideals: Optional[tuple["LeftIdeal", ...]] = None
        self._gens: Optional[tuple[int, ...]] = None
        self._associative = False

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        self._rows = self._rows or tuple(map(tuple, self.mul.tolist()))
        return self._rows

    def name_of(self, a: int) -> str:
        return self.names[a] if self.names is not None else str(a)

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

    @property
    def members(self) -> frozenset[int]:
        return frozenset(i for i in range(self.monoid.size) if self.mask >> i & 1)

    def member_names(self) -> tuple[str, ...]:
        return tuple(self.monoid.name_of(i) for i in sorted(self.members))

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
    """All left ideals, sorted by (size, mask); always contains 0 and M."""
    if m._ideals is None:
        # every left ideal is a union of principal ideals
        masks = union_closure(m.reach_masks(), "ideal lattice")
        masks.sort(key=lambda k: (k.bit_count(), k))
        m._ideals = tuple(LeftIdeal(m, mask) for mask in masks)
    return list(m._ideals)


def union_closure(masks: Iterable[int], what: str) -> list[int]:
    """Every union of the given bitmasks, the empty union 0 included, in no
    particular order.  Past IDEAL_COUNT_CAP unions it raises CapacityError,
    naming ``what`` is being closed."""
    generators = sorted(set(masks))
    found = {0}
    frontier = list(generators)
    while frontier:
        mask = frontier.pop()
        if mask in found:
            continue
        found.add(mask)
        if len(found) > IDEAL_COUNT_CAP:
            raise CapacityError(f"{what} exceeds configured cap")
        frontier.extend(mask | g for g in generators if mask | g not in found)
    return list(found)


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
    return _composition_monoid(map_monoid_values(k))


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
    """The sorted self-maps of {0..k-1} (the identity among them) under composition,
    each named 'f' followed by its value digits.  Digit x of the base-k code of f∘g is
    ``values[f, values[g, x]]``; the maps' own codes, the identity column, are sorted."""
    k, n = len(maps[0]), len(maps)
    values = np.array(maps, dtype=np.min_scalar_type(k - 1))
    identity = maps.index(tuple(range(k)))
    codes = np.zeros((n, n), dtype=np.min_scalar_type(k ** k - 1))  # object from k = 17
    for x in range(k):
        codes *= k
        codes += values.take(values[:, x], axis=1)
    table, rows = np.empty((n, n), dtype=np.min_scalar_type(n - 1)), max(1, (1 << 20) // n)
    for i in range(0, n, rows):   # row blocks keep searchsorted's int64 result small
        table[i:i + rows] = codes[:, identity].searchsorted(codes[i:i + rows])
    del codes
    names = ["f" + "".join(str(v) for v in f) for f in maps]
    monoid = FiniteMonoid.__new__(FiniteMonoid)
    monoid._own(table, identity, names)   # the table is fresh: adopt it, no copy
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
    """Exhaustively verify the Heyting-algebra laws on the ideal lattice.

    Bit j of an ideal's code is set iff ``principal[j]`` lies inside it; codes
    are the narrowest unsigned ints up to 64 principal ideals, Python ints past.
    Meet and join are ``&`` and ``|``, and bit j of ``a => b`` is set iff
    ``down[j] & a & ~b == 0``, where ``down[j]`` codes ``principal[j]``.

    Returns a dict with the ideal count, a pass/fail flag per law, and the
    list of ideals witnessing failure of excluded middle (join with their
    negation below the full ideal).
    """
    ideals = enumerate_left_ideals(m)
    principal = sorted(set(m.reach_masks()))
    dtype = np.min_scalar_type((1 << len(principal)) - 1) if len(principal) <= 64 else object

    def encode(masks):
        return np.array([sum(1 << j for j, p in enumerate(principal) if p & ~mask == 0)
                         for mask in masks], dtype=dtype)

    codes, down = encode(i.mask for i in ideals), encode(principal)
    empty, full = encode([0, (1 << m.size) - 1])

    def implies(a, b):
        outside = a & ~b
        out = np.zeros(outside.shape, dtype=dtype)
        for j, d in enumerate(down):
            out[d & outside == 0] |= 1 << j
        return out

    ordered = np.sort(codes)   # np.isin would import numpy.ma through np.unique

    def closed(values):
        at = np.minimum(np.searchsorted(ordered, values), len(ordered) - 1)
        return (ordered[at] == values).all()

    # pair laws over the (x, y) plane; triple laws for each x over (y, z)
    a, b = codes[:, None], codes[None, :]
    meet, join, imp, neg = a & b, a | b, implies(a, b), implies(codes, empty)
    z_not_y = b & ~a
    triple = np.ones(3, dtype=bool)
    for x, imp_x in zip(codes, imp):
        triple &= [((x & a & b == x & meet) & (x | a | b == x | join)).all(),
                   ((x & join == (x & a) | (x & b)) & (x | meet == (x | a) & (x | b))).all(),
                   ((x & z_not_y == 0) == (b & ~imp_x[:, None] == 0)).all()]
    associative, distributive, residuation = triple
    laws = {
        "closure_meet": closed(meet),
        "closure_join": closed(join),
        "closure_implies": closed(imp),
        "closure_not": closed(neg),
        "commutative": ((meet == b & a) & (join == b | a)).all(),
        "associative": associative,
        "idempotent": ((codes & codes == codes) & (codes | codes == codes)).all(),
        "absorption": ((a & join == a) & (a | meet == a)).all(),
        "bounds": ((codes & full == codes) & (codes | empty == codes)
                   & (codes | full == full) & (codes & empty == empty)).all(),
        "distributive": distributive,
        "residuation": residuation,
    }
    laws = {name: bool(laws[name]) for name in HEYTING_LAW_NAMES}
    return {
        "size": m.size,
        "ideal_count": len(ideals),
        "ideals": [i.member_names() for i in ideals],
        "laws": laws,
        "all_laws_hold": all(laws.values()),
        "excluded_middle_failures": [ideals[i].member_names()
                                     for i in np.flatnonzero(codes | neg != full)],
    }
