"""Finite M-sets, invariant subsets, characteristic arrows, and the
point-level generalized truth values they induce.

An M-set keeps its action as one array, ``table[m, i]`` being the index of
m acting on point i.  Products combine tables by index arithmetic, each
point-level truth value is the ideal of the rows whose table columns meet
one condition, and the invariant subsets are the down-sets of the orbits M·x
under inclusion.  As Hom(X, Ω) ≅ Sub(X), the equivariant maps X → Ω are the
characteristic arrows χ_S(p) = {m | m·p ∈ S} of those subsets, one gather each.

Two membership truth values exist side by side and are never auto-selected:
``truth_in_invariant`` (membership of the translate in a fixed invariant
subset) and ``truth_in_subset`` (membership in the translated subset).
They disagree in general.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import CapacityError, UsageError, ValidationError
from .monoid import (FiniteMonoid, LeftIdeal, down_sets, ideal_lattice, mask_rows, orbit_masks,
                     row_index, row_masks, sorted_ideals)

Point = Hashable

# Action-law validation touches |G| * |M| * |carrier| triples, G being the
# monoid's generators when it is known to be associative and all of M otherwise.
ACTION_CHECK_BUDGET = 50_000_000


class MSet:
    """A finite carrier with a left action of a finite monoid.

    The action is an elements-by-points table of carrier indices, kept as
    the read-only array ``table`` in the narrowest unsigned dtype.  The
    action laws (identity acts trivially; acting by n then m equals acting
    by the product mn) are verified at construction.  When the monoid is
    known to be associative, checking every m against each generator g
    proves the law for every n, by induction on the length of n as a word in
    the generators; otherwise every pair is scanned.  A failure is named by
    the first failing ``(m, n, point)`` row by row while the rows fit
    ``ACTION_CHECK_BUDGET``, and past them by a generator's.
    """

    __slots__ = ("monoid", "points", "_index", "table")

    def __init__(self, monoid: FiniteMonoid, points: Sequence[Point],
                 action: Sequence[Sequence[int]]):
        self.monoid = monoid
        self.points = tuple(points)
        if len(set(self.points)) != len(self.points):
            raise ValidationError("carrier points must be distinct")
        self._index = {x: i for i, x in enumerate(self.points)}
        n, k = monoid.size, len(self.points)
        check_action_budget(monoid, k)
        try:
            table = np.asarray(action)
            table = table if table.dtype.kind in "iu" else table.astype(np.intp)
        except OverflowError:
            raise ValidationError("action table entry out of range") from None
        except (TypeError, ValueError):
            raise ValidationError("action table has wrong shape") from None
        if table.shape != (n, k):
            raise ValidationError("action table has wrong shape")
        if ((table < 0) | (table >= k)).any():
            raise ValidationError("action table entry out of range")
        self.table = table = table.astype(np.min_scalar_type(max(k - 1, 0)))
        table.flags.writeable = False
        if (table[monoid.identity] != np.arange(k)).any():
            raise ValidationError("identity element does not act trivially")
        # For each generator g, table taken at table[g] is "act by g, then
        # by m" for every (m, i), and the rows mul[:, g] of table are "act by
        # the product mg"; both stay in the table's narrow dtype.
        gens, witness = monoid.generators(), None
        for g in gens or ():
            if (bad := table.take(table[g], axis=1) != table.take(monoid.mul[:, g], axis=0)).any():
                m, i = np.argwhere(bad)[0].tolist()
                witness = m, g, i
                break
        if gens is not None and witness is None:
            return
        # Name the first failure row by row while the rows fit the budget; it
        # lies at or before the generator's, which is named past them.
        rows = monoid.mul[:ACTION_CHECK_BUDGET // max(n * k, 1)]
        if failure := _first_law_failure(rows, table) or witness:
            raise ValidationError("action law fails at m={}, n={}, point index {}".format(*failure))

    def act(self, m: int, x: Point) -> Point:
        return self.points[self.table[m, self._index[x]]]

    def index(self, x: Point) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise UsageError(f"{x!r} is not a carrier point") from None

    def translate(self, m: int, subset: Iterable[Point]) -> frozenset[Point]:
        """The image m*K of a subset under the action of m."""
        return frozenset(self.act(m, x) for x in subset)

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"MSet({len(self.points)} points over size-{self.monoid.size} monoid)"


def check_action_budget(monoid: FiniteMonoid, points: int):
    """Refuse an M-set whose law check exceeds the budget, before any table is read."""
    gens = monoid.generators()
    if (monoid.size if gens is None else len(gens)) * monoid.size * points > ACTION_CHECK_BUDGET:
        raise CapacityError("action-law validation would exceed its budget")


def _first_law_failure(mul: np.ndarray, table: np.ndarray) -> Optional[tuple[int, int, int]]:
    """The first (m, n, i), one row m of mul at a time, where acting by n and
    then by m differs from acting by the product mn: table[m] taken at table
    is the first for every (n, i), and the rows mul[m] of table the second."""
    for m, row in enumerate(mul):
        bad = table[m].take(table) != table.take(row, axis=0)
        if bad.any():
            n, i = (int(v) for v in np.argwhere(bad)[0])
            return m, n, i
    return None


def left_regular(monoid: FiniteMonoid) -> MSet:
    """The monoid acting on itself by left multiplication."""
    return MSet(monoid, range(monoid.size), monoid.mul)


def product_mset(x: MSet, y: MSet) -> MSet:
    """Componentwise action on the product carrier: point (i, j) is index
    ``i*|Y| + j``, so ``m`` sends it to ``x.table[m, i]*|Y| + y.table[m, j]``."""
    if x.monoid is not y.monoid:
        raise UsageError("factors must share a monoid")
    check_action_budget(x.monoid, len(x) * len(y))
    points = [(a, b) for a in x.points for b in y.points]
    wide = x.table.astype(np.min_scalar_type(max(len(points), len(y))))
    table = wide[:, :, None] * len(y) + y.table[:, None, :]
    return MSet(x.monoid, points, table.reshape(x.monoid.size, len(points)))


def _ideal_where(x: MSet, rows: np.ndarray) -> LeftIdeal:
    """The left ideal of the elements m whose row meets a condition, given
    as one boolean per element."""
    return LeftIdeal(x.monoid, row_masks(rows[None])[0])


def _members(x: MSet, subset: Iterable[Point]) -> np.ndarray:
    """The subset as one boolean per carrier point."""
    inside = np.zeros(len(x), dtype=bool)
    inside[[x.index(p) for p in frozenset(subset)]] = True
    return inside


def _invariant(x: MSet, inside: np.ndarray) -> bool:
    return bool(inside[x.table[:, inside]].all())


def _require_invariant(x: MSet, inside: np.ndarray):
    if not _invariant(x, inside):
        raise ValidationError("subset is not invariant under the action")


def is_invariant(x: MSet, subset: Iterable[Point]) -> bool:
    """True iff the subset is closed under the action of every element."""
    return _invariant(x, _members(x, subset))


def truth_in_invariant(x: MSet, point: Point, subset: Iterable[Point]) -> LeftIdeal:
    """The elements sending the point into the fixed invariant subset."""
    inside = _members(x, subset)
    column = x.table[:, x.index(point)]
    _require_invariant(x, inside)
    return _ideal_where(x, inside[column])


def _arrow_masks(x: MSet, inside: np.ndarray) -> list[int]:
    """Per point p, the mask of χ_S(p) = {m | m·p ∈ S}, S given by ``inside``."""
    return row_masks(inside[x.table].T)


def characteristic_arrow(x: MSet, subset: Iterable[Point]) -> dict[Point, LeftIdeal]:
    """The classifying map of an invariant subset, point by point."""
    inside = _members(x, subset)
    _require_invariant(x, inside)
    return {p: LeftIdeal(x.monoid, mask) for p, mask in zip(x.points, _arrow_masks(x, inside))}


def truth_in_subset(x: MSet, point: Point, subset: Iterable[Point]) -> LeftIdeal:
    """The elements m with m*point inside the translated subset m*K.

    The subset need not be invariant; for invariant K this is contained in
    (and generally differs from) truth_in_invariant.
    """
    inside = _members(x, subset)
    column = x.table[:, [x.index(point)]]
    return _ideal_where(x, (x.table[:, inside] == column).any(axis=1))


def truth_subset_leq(x: MSet, first: Iterable[Point], second: Iterable[Point]) -> LeftIdeal:
    """The elements m with m*K1 contained in m*K2."""
    k1 = x.table[:, _members(x, first)]
    k2 = x.table[:, _members(x, second)]
    return _ideal_where(x, (k1[:, :, None] == k2[:, None, :]).any(axis=2).all(axis=1))


def truth_equal(x: MSet, a: Point, b: Point) -> LeftIdeal:
    """Partial equality: the elements merging the two points."""
    i, j = x.index(a), x.index(b)
    return _ideal_where(x, x.table[:, i] == x.table[:, j])


@dataclass(frozen=True)
class KFamily:
    """A family of subsets K_m, one per monoid element, compatible with the
    action: m' * K_m is contained in K_{m'm}."""

    base: MSet
    sets: tuple[frozenset[Point], ...]

    def __post_init__(self):
        mon = self.base.monoid
        if len(self.sets) != mon.size:
            raise ValidationError("need exactly one subset per monoid element")
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))
        held = _held(self)
        # held[mul[m', m], table[m', i]] says m'*i lies in K_{m'm}, for each (m, i)
        for mp, row in enumerate(mon.mul):
            bad = np.argwhere(held & ~held[row][:, self.base.table[mp]])
            if len(bad):
                raise ValidationError(
                    f"family violates compatibility at m'={mp}, m={int(bad[0][0])}")


def _held(family: KFamily) -> np.ndarray:
    """``held[m, i]`` says carrier point i lies in K_m."""
    return np.array([_members(family.base, s) for s in family.sets])


def family_from_subset(x: MSet, subset: Iterable[Point]) -> KFamily:
    """The family K_m := m*K generated by an arbitrary subset."""
    inside = _members(x, subset)
    return KFamily(x, tuple(frozenset(x.points[i] for i in row)
                            for row in x.table[:, inside].tolist()))


def truth_in_family(x: MSet, point: Point, family: KFamily) -> LeftIdeal:
    """The elements m with m*point in K_m."""
    if family.base is not x:
        raise UsageError("family belongs to a different M-set")
    return _ideal_where(x, _held(family)[np.arange(x.monoid.size), x.table[:, x.index(point)]])


def family_to_lambda(family: KFamily) -> dict[tuple[Point, int], LeftIdeal]:
    """The pairing (x, m) -> {m' | m'x in K_{m'm}} induced by a family."""
    x, held = family.base, _held(family)
    mul = x.monoid.mul
    return {(p, m): _ideal_where(x, held[mul[:, m], x.table[:, i]])
            for i, p in enumerate(x.points) for m in range(x.monoid.size)}


def lambda_to_family(x: MSet, pairing: Mapping[tuple[Point, int], LeftIdeal]) -> KFamily:
    """Recover the family K_m = {x | pairing(x, m) is the full ideal}.

    The pairing must be total and equivariant: pairing(m'x, m'm) equals
    the ideal action of m' on pairing(x, m).
    """
    mon = x.monoid
    for p in x.points:
        for m in range(mon.size):
            if (p, m) not in pairing:
                raise ValidationError(f"pairing undefined at ({p!r}, {m})")
            if pairing[p, m].monoid is not mon:
                raise UsageError("pairing values belong to a different monoid")
    for i, p in enumerate(x.points):
        moved = x.table[:, i].tolist()
        for m in range(mon.size):
            # row m' of the gather is the ideal action of m': bit m'' says m''m' is in the ideal
            acted = row_masks(mask_rows([pairing[p, m].mask], mon.size)[0][mon.mul.T])
            targets = zip(moved, mon.mul[:, m].tolist(), acted)
            for mp, (j, mpm, mask) in enumerate(targets):
                if pairing[x.points[j], mpm].mask != mask:
                    raise ValidationError(
                        f"pairing is not equivariant at ({p!r}, {m}) under {mp}")
    return KFamily(x, tuple(frozenset(p for p in x.points if pairing[p, m].is_full)
                            for m in range(mon.size)))


def _invariant_rows(x: MSet) -> np.ndarray:
    """The invariant subsets, one boolean row per subset: the unions of the orbits M·x."""
    codes, cls, _, _ = down_sets(orbit_masks(x.table), "invariant-subset lattice")
    return codes[:, cls]


def invariant_subsets(x: MSet) -> list[frozenset[Point]]:
    """All invariant subsets, smallest first: the unions of the orbits M·x."""
    subsets = (frozenset(itertools.compress(x.points, row)) for row in _invariant_rows(x).tolist())
    return sorted(subsets, key=lambda s: (len(s), sorted(map(repr, s))))


def equivariant_maps_to_ideals(x: MSet) -> list[dict[Point, LeftIdeal]]:
    """All equivariant maps X → Ω, ordered by their tuples of ideal masks:
    as Hom(X, Ω) ≅ Sub(X), the arrows χ_S(p) = {m | m·p ∈ S} of the invariant
    subsets S, raising CapacityError past IDEAL_COUNT_CAP of them."""
    insides = _invariant_rows(x)
    # each ideal with its row of the lattice's codes, indexed by mask rank
    ideals, rows = zip(*sorted(zip(*sorted_ideals(x.monoid)), key=lambda p: p[0].mask))
    codes, _, reps, _ = ideal_lattice(x.monoid)
    arrows = row_index(codes[list(rows)], insides[:, x.table[reps].T])   # bit j: reps[j]·p ∈ S
    if len(x):   # lexsort takes the last key first, and needs one
        arrows = arrows[np.lexsort(arrows.T[::-1])]
    return [dict(zip(x.points, map(ideals.__getitem__, row))) for row in arrows.tolist()]


def arrow_to_invariant(x: MSet, arrow: Mapping[Point, LeftIdeal]) -> frozenset[Point]:
    """The invariant subset classified by an equivariant map: the points
    whose truth value is the full ideal."""
    return frozenset(p for p in x.points if arrow[p].is_full)
