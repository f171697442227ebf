"""Reference oracles for the M-set truth values: the point-by-point loops
that ``mset.py`` replaced with conditions on the action table.

Each oracle reads the action only through ``MSet.act`` and ``MSet.index``
and loops over every element (and every point or subset) in Python, as
the library did before its action became one integer array.  Actions given
as callbacks are evaluated into tables by ``table_of``, one call per element
and point.  The product oracle is the callback product, and the
proposition oracle is the callback construction of a value-set system's
subject and range M-sets, with its own subject list and relabelling.  The
action-law oracle is the exhaustive row scan that the generator check of
associative monoids replaced.  The equivariant-map oracle is the
backtracking search that the characteristic arrows of the invariant subsets
replaced (Hom(X, Omega) is isomorphic to Sub(X)).
"""

import itertools

import numpy as np

from monoidtopos.errors import CapacityError, ValidationError
from monoidtopos.monoid import enumerate_left_ideals, map_monoid_values, mask_rows, row_masks
from monoidtopos.mset import MSet


def as_subset(x, subset):
    s = frozenset(subset)
    for p in s:
        x.index(p)
    return s


def is_invariant(x, subset):
    s = as_subset(x, subset)
    return all(x.act(m, p) in s for m in range(x.monoid.size) for p in s)


def truth_in_invariant(x, point, subset):
    s = as_subset(x, subset)
    x.index(point)
    if not is_invariant(x, s):
        raise ValidationError("subset is not invariant under the action")
    return x.monoid.ideal(m for m in range(x.monoid.size) if x.act(m, point) in s)


def characteristic_arrow(x, subset):
    s = as_subset(x, subset)
    if not is_invariant(x, s):
        raise ValidationError("subset is not invariant under the action")
    mon = x.monoid
    return {p: mon.ideal(m for m in range(mon.size) if x.act(m, p) in s) for p in x.points}


def truth_in_subset(x, point, subset):
    s = as_subset(x, subset)
    x.index(point)
    mon = x.monoid
    return mon.ideal(m for m in range(mon.size) if x.act(m, point) in x.translate(m, s))


def truth_subset_leq(x, first, second):
    k1, k2 = as_subset(x, first), as_subset(x, second)
    mon = x.monoid
    return mon.ideal(m for m in range(mon.size) if x.translate(m, k1) <= x.translate(m, k2))


def truth_equal(x, a, b):
    x.index(a), x.index(b)
    mon = x.monoid
    return mon.ideal(m for m in range(mon.size) if x.act(m, a) == x.act(m, b))


def family_violation(x, sets):
    """The first (m', m) with m' * K_m outside K_{m'm}, or None."""
    mon = x.monoid
    for mp in range(mon.size):
        for m in range(mon.size):
            if not x.translate(mp, sets[m]) <= sets[mon.table[mp][m]]:
                return mp, m
    return None


def truth_in_family(x, point, sets):
    mon = x.monoid
    return mon.ideal(m for m in range(mon.size) if x.act(m, point) in sets[m])


def family_to_lambda(x, sets):
    mon = x.monoid
    return {(p, m): mon.ideal(mp for mp in range(mon.size)
                              if x.act(mp, p) in sets[mon.table[mp][m]])
            for p in x.points for m in range(mon.size)}


def invariant_subsets(x):
    """Every subset of the carrier filtered for invariance (2^k of them)."""
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


class Unreadable:
    """An action whose table cannot be read."""

    def __array__(self, *args, **kwargs):
        raise AssertionError("the action table was read")


def table_of(monoid, points, action):
    """The action table of a callback ``action(m, point)``: one call per
    element and point, each result looked up among the points."""
    index = {x: i for i, x in enumerate(points)}
    return [[index[action(m, x)] for x in points] for m in range(monoid.size)]


def product_mset(x, y):
    """The callback product: one action call per element and point."""
    points = [(a, b) for a in x.points for b in y.points]
    return MSet(x.monoid, points,
                table_of(x.monoid, points, lambda m, p: (x.act(m, p[0]), y.act(m, p[1]))))


def subjects(system):
    """Every subject of a classical or quantum system, in the point order of
    its proposition M-set: the quantities as label tuples, or each operator
    by name with its cluster labels."""
    nv = len(system.values)
    if hasattr(system, "states"):
        return list(itertools.product(range(nv), repeat=len(system.states)))
    return [(name, labels) for name in sorted(system.operators)
            for labels in itertools.product(range(nv), repeat=len(system.labels[name]))]


def relabel(system, f, subject):
    """The subject f(A): each value label replaced by its image under f."""
    if hasattr(system, "states"):
        return tuple(f[i] for i in subject)
    name, labels = subject
    return name, tuple(f[l] for l in labels)


def proposition_factors(system):
    """The subject and range M-sets of a value-set system, built by
    callbacks: a map relabels a subject and sends a range to its image."""
    maps, nv, monoid = map_monoid_values(len(system.values)), len(system.values), system.monoid
    subject_points = subjects(system)
    ranges = [frozenset(i for i in range(nv) if mask >> i & 1) for mask in range(1 << nv)]
    return (MSet(monoid, subject_points,
                 table_of(monoid, subject_points, lambda m, a: relabel(system, maps[m], a))),
            MSet(monoid, ranges,
                 table_of(monoid, ranges, lambda m, g: frozenset(maps[m][i] for i in g))))


def action_law_failure(monoid, table):
    """The exhaustive row scan ``MSet`` runs on every pair of elements: the
    first (m, n, i), row by row, where acting by n and then by m differs
    from acting by the product mn, or None."""
    table = np.asarray(table)
    for m, row in enumerate(monoid.mul):
        bad = table[m].take(table) != table.take(row, axis=0)
        if bad.any():
            n, i = (int(v) for v in np.argwhere(bad)[0])
            return m, n, i
    return None


def right_cayley_closure(monoid, gens):
    """The elements reached from the identity by right multiplication by
    the generators, one product at a time."""
    found, queue = {monoid.identity}, [monoid.identity]
    for a in queue:
        for g in gens:
            b = monoid.table[a][g]
            if b not in found:
                found.add(b)
                queue.append(b)
    return found


def equivariant_maps_by_search(x):
    """All equivariant maps from the carrier into the ideal lattice, found by
    backtracking point by point and propagating chi(m*x) = action(m, chi(x)),
    so the search branches only on points not yet forced; sorted by their
    tuples of ideal masks."""
    mon = x.monoid
    ideals = enumerate_left_ideals(mon)
    by_mask = {i.mask: i for i in ideals}
    masks = list(by_mask)
    bits = mask_rows(masks, mon.size)   # action_of[m][I] = {m' | m'm in I}: one gather per m
    action_of = [dict(zip(masks, row_masks(bits[:, column]))) for column in mon.mul.T]
    k = len(x.points)
    table = x.table.tolist()
    results = []
    assignment = [None] * k

    def propagate(i, mask, undo):
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
                stack.append((table[m][j], action_of[m][mk]))
        return True

    def search(start):
        i = start
        while i < k and assignment[i] is not None:
            i += 1
        if i == k:
            results.append({x.points[j]: by_mask[assignment[j]] for j in range(k)})
            return
        for ideal in ideals:
            undo = []
            if propagate(i, ideal.mask, undo):
                search(i + 1)
            for j in undo:
                assignment[j] = None

    search(0)
    results.sort(key=lambda chi: tuple(chi[p].mask for p in x.points))
    return results
