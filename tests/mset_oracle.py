"""Reference oracles for the M-set truth values: the point-by-point loops
that ``mset.py`` replaced with conditions on the action table.

Each oracle reads the action only through ``MSet.act`` and ``MSet.index``
and loops over every element (and every point or subset) in Python, as
the library did before its action became one integer array.  The product
oracle is the callback product: the action is called once per element and
point of the product carrier.  The action-law oracle is the exhaustive row
scan that the generator check of associative monoids replaced.
"""

import numpy as np

from monoidtopos.errors import CapacityError, ValidationError
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


def product_mset(x, y):
    """The callback product: one action call per element and point."""
    points = [(a, b) for a in x.points for b in y.points]
    return MSet(x.monoid, points, lambda m, p: (x.act(m, p[0]), y.act(m, p[1])))


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
