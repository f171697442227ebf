"""Finite M-sets, invariant subsets, characteristic arrows, and the
point-level generalized truth values they induce.

Two membership truth values exist side by side and are never auto-selected:
``truth_in_invariant`` (membership of the translate in a fixed invariant
subset) and ``truth_in_subset`` (membership in the translated subset).
They disagree in general.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import CapacityError, UsageError, ValidationError
from .monoid import FiniteMonoid, LeftIdeal, ideal_action

Point = Hashable

# Exhaustive action-law validation touches |M|^2 * |carrier| triples.
ACTION_CHECK_BUDGET = 50_000_000


class MSet:
    """A finite carrier with a left action of a finite monoid.

    The action laws (identity acts trivially; acting by n then m equals
    acting by the product mn) are verified exhaustively at construction.
    """

    __slots__ = ("monoid", "points", "_index", "_table")

    def __init__(self, monoid: FiniteMonoid, points: Sequence[Point],
                 action: Callable[[int, Point], Point] | Sequence[Sequence[int]]):
        self.monoid = monoid
        self.points = tuple(points)
        if len(set(self.points)) != len(self.points):
            raise ValidationError("carrier points must be distinct")
        self._index = {x: i for i, x in enumerate(self.points)}
        n = monoid.size
        if callable(action):
            table = []
            for m in range(n):
                row = []
                for x in self.points:
                    y = action(m, x)
                    if y not in self._index:
                        raise ValidationError(f"action leaves the carrier at ({m}, {x!r})")
                    row.append(self._index[y])
                table.append(tuple(row))
            self._table = tuple(table)
        else:
            table = tuple(tuple(int(v) for v in row) for row in action)
            if len(table) != n or any(len(row) != len(self.points) for row in table):
                raise ValidationError("action table has wrong shape")
            for row in table:
                for v in row:
                    if not 0 <= v < len(self.points):
                        raise ValidationError("action table entry out of range")
            self._table = table
        self._validate_laws()

    def _validate_laws(self):
        n, k = self.monoid.size, len(self.points)
        if n * n * k > ACTION_CHECK_BUDGET:
            raise CapacityError("action-law validation would exceed its budget")
        ident = self.monoid.identity
        for i in range(k):
            if self._table[ident][i] != i:
                raise ValidationError("identity element does not act trivially")
        # One row m at a time: table[m][table] is "act by n, then by m" for
        # every (n, i), and table[mul[m]] is "act by the product mn".  The
        # narrowest index dtype keeps these n-by-k temporaries small.
        table = np.asarray(self._table, dtype=np.min_scalar_type(k - 1)).reshape(n, k)
        mul = self.monoid.table
        for m in range(n):
            bad = np.argwhere(table[m][table] != table[list(mul[m])])
            if len(bad):
                nn, i = (int(v) for v in bad[0])
                raise ValidationError(
                    f"action law fails at m={m}, n={nn}, point index {i}")

    def act(self, m: int, x: Point) -> Point:
        return self.points[self._table[m][self._index[x]]]

    def act_index(self, m: int, i: int) -> int:
        return self._table[m][i]

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


def left_regular(monoid: FiniteMonoid) -> MSet:
    """The monoid acting on itself by left multiplication."""
    return MSet(monoid, range(monoid.size), lambda m, x: monoid.table[m][x])


def product_mset(x: MSet, y: MSet) -> MSet:
    """Componentwise action on the product carrier."""
    if x.monoid is not y.monoid:
        raise UsageError("factors must share a monoid")
    points = [(a, b) for a in x.points for b in y.points]
    return MSet(x.monoid, points, lambda m, p: (x.act(m, p[0]), y.act(m, p[1])))


def _as_subset(x: MSet, subset: Iterable[Point]) -> frozenset[Point]:
    s = frozenset(subset)
    for p in s:
        if p not in x._index:
            raise UsageError(f"{p!r} is not a carrier point")
    return s


def is_invariant(x: MSet, subset: Iterable[Point]) -> bool:
    """True iff the subset is closed under the action of every element."""
    s = _as_subset(x, subset)
    return all(x.act(m, p) in s for m in range(x.monoid.size) for p in s)


def truth_in_invariant(x: MSet, point: Point, subset: Iterable[Point]) -> LeftIdeal:
    """The elements sending the point into the fixed invariant subset."""
    s = _as_subset(x, subset)
    x.index(point)
    if not is_invariant(x, s):
        raise ValidationError("subset is not invariant under the action")
    return x.monoid.ideal(m for m in range(x.monoid.size) if x.act(m, point) in s)


def characteristic_arrow(x: MSet, subset: Iterable[Point]) -> dict[Point, LeftIdeal]:
    """The classifying map of an invariant subset, point by point."""
    s = _as_subset(x, subset)
    if not is_invariant(x, s):
        raise ValidationError("subset is not invariant under the action")
    mon = x.monoid
    return {p: mon.ideal(m for m in range(mon.size) if x.act(m, p) in s)
            for p in x.points}


def truth_in_subset(x: MSet, point: Point, subset: Iterable[Point]) -> LeftIdeal:
    """The elements m with m*point inside the translated subset m*K.

    The subset need not be invariant; for invariant K this is contained in
    (and generally differs from) truth_in_invariant.
    """
    s = _as_subset(x, subset)
    x.index(point)
    mon = x.monoid
    return mon.ideal(m for m in range(mon.size)
                     if x.act(m, point) in x.translate(m, s))


def truth_subset_leq(x: MSet, first: Iterable[Point], second: Iterable[Point]) -> LeftIdeal:
    """The elements m with m*K1 contained in m*K2."""
    k1 = _as_subset(x, first)
    k2 = _as_subset(x, second)
    mon = x.monoid
    return mon.ideal(m for m in range(mon.size)
                     if x.translate(m, k1) <= x.translate(m, k2))


def truth_equal(x: MSet, a: Point, b: Point) -> LeftIdeal:
    """Partial equality: the elements merging the two points."""
    x.index(a), x.index(b)
    mon = x.monoid
    return mon.ideal(m for m in range(mon.size) if x.act(m, a) == x.act(m, b))


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
        sets = tuple(_as_subset(self.base, s) for s in self.sets)
        object.__setattr__(self, "sets", sets)
        for mp in range(mon.size):
            for m in range(mon.size):
                target = sets[mon.table[mp][m]]
                if not self.base.translate(mp, sets[m]) <= target:
                    raise ValidationError(
                        f"family violates compatibility at m'={mp}, m={m}")

    def at(self, m: int) -> frozenset[Point]:
        return self.sets[m]


def family_from_subset(x: MSet, subset: Iterable[Point]) -> KFamily:
    """The family K_m := m*K generated by an arbitrary subset."""
    s = _as_subset(x, subset)
    return KFamily(x, tuple(x.translate(m, s) for m in range(x.monoid.size)))


def truth_in_family(x: MSet, point: Point, family: KFamily) -> LeftIdeal:
    """The elements m with m*point in K_m."""
    if family.base is not x:
        raise UsageError("family belongs to a different M-set")
    mon = x.monoid
    return mon.ideal(m for m in range(mon.size) if x.act(m, point) in family.at(m))


def family_to_lambda(family: KFamily) -> dict[tuple[Point, int], LeftIdeal]:
    """The pairing (x, m) -> {m' | m'x in K_{m'm}} induced by a family."""
    x = family.base
    mon = x.monoid
    out = {}
    for p in x.points:
        for m in range(mon.size):
            out[p, m] = mon.ideal(
                mp for mp in range(mon.size)
                if x.act(mp, p) in family.at(mon.table[mp][m]))
    return out


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
            ideal = pairing[p, m]
            if ideal.monoid is not mon:
                raise UsageError("pairing values belong to a different monoid")
            for mp in range(mon.size):
                expected = ideal_action(mp, ideal)
                got = pairing[x.act(mp, p), mon.table[mp][m]]
                if got.mask != expected.mask:
                    raise ValidationError(
                        f"pairing is not equivariant at ({p!r}, {m}) under {mp}")
    full = (1 << mon.size) - 1
    sets = tuple(frozenset(p for p in x.points if pairing[p, m].mask == full)
                 for m in range(mon.size))
    return KFamily(x, sets)


def invariant_subsets(x: MSet) -> list[frozenset[Point]]:
    """All invariant subsets, smallest first (carrier must be small)."""
    k = len(x.points)
    if k > 20:
        raise CapacityError("carrier too large for subset enumeration")
    out = []
    for mask in range(1 << k):
        s = frozenset(x.points[i] for i in range(k) if mask >> i & 1)
        if is_invariant(x, s):
            out.append(s)
    out.sort(key=lambda s: (len(s), sorted(map(repr, s))))
    return out


def equivariant_maps_to_ideals(x: MSet) -> list[dict[Point, LeftIdeal]]:
    """All equivariant maps from the carrier into the ideal lattice.

    Backtracks point by point, propagating chi(m*x) = action(m, chi(x)),
    so the search branches only on points not yet forced.
    """
    from .monoid import enumerate_left_ideals

    mon = x.monoid
    ideals = enumerate_left_ideals(mon)
    action_of = [{i.mask: ideal_action(m, i).mask for i in ideals}
                 for m in range(mon.size)]
    k = len(x.points)
    results: list[dict[Point, LeftIdeal]] = []
    assignment: list[Optional[int]] = [None] * k

    def propagate(i: int, mask: int, undo: list[int]) -> bool:
        stack = [(i, mask)]
        while stack:
            j, mk = stack.pop()
            if assignment[j] is not None:
                if assignment[j] != mk:
                    return False
                continue
            assignment[j] = mk
            undo.append(j)
            for m in range(mon.size):
                stack.append((x.act_index(m, j), action_of[m][mk]))
        return True

    def search(start: int):
        i = start
        while i < k and assignment[i] is not None:
            i += 1
        if i == k:
            results.append({x.points[j]: LeftIdeal(mon, assignment[j])
                            for j in range(k)})
            return
        for ideal in ideals:
            undo: list[int] = []
            if propagate(i, ideal.mask, undo):
                search(i + 1)
            for j in undo:
                assignment[j] = None

    search(0)
    results.sort(key=lambda chi: tuple(chi[p].mask for p in x.points))
    return results


def arrow_to_invariant(x: MSet, arrow: Mapping[Point, LeftIdeal]) -> frozenset[Point]:
    """The invariant subset classified by an equivariant map: the points
    whose truth value is the full ideal."""
    full = (1 << x.monoid.size) - 1
    return frozenset(p for p in x.points if arrow[p].mask == full)
